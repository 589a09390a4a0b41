package checkpoint

import (
	"os"
	"syscall"
)

// changeTime is fi's inode change time in nanoseconds. Writes, renames
// and link-count changes all move it.
func changeTime(fi os.FileInfo) int64 {
	if st, ok := fi.Sys().(*syscall.Stat_t); ok {
		return st.Ctim.Nano()
	}
	return 0
}
