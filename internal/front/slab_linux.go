package front

import (
	"syscall"
	"unsafe"
)

// hugePages advises the kernel to back s, a slab of at least one huge
// page, with transparent huge pages. Advice only: an error leaves the
// slab on small pages.
func hugePages(s []float64) {
	if len(s) >= 1<<18 {
		_ = syscall.Madvise(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s)), syscall.MADV_HUGEPAGE)
	}
}
