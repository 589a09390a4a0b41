package vm

import "syscall"

// sysMemfdCreate is memfd_create's number.
const sysMemfdCreate = syscall.SYS_MEMFD_CREATE
