//go:build !linux

package checkpoint

import "os"

// changeTime has no portable source off Linux; readStable then relies
// on size, mtime and the inode identity.
func changeTime(os.FileInfo) int64 { return 0 }
