package vm

// sysMemfdCreate is memfd_create's number; Go's frozen amd64 syscall
// table has no SYS_MEMFD_CREATE.
const sysMemfdCreate = 319
