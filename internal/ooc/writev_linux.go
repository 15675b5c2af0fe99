package ooc

import (
	"math/bits"
	"os"
	"syscall"
	"unsafe"
)

// maxIovecs is the kernel's limit on the buffers of one vectored write
// (IOV_MAX).
const maxIovecs = 1024

// runWriter writes runs of file-adjacent records, one pwritev per run
// of at most maxIovecs records. Its vector is reused, so a warm writer
// allocates nothing.
type runWriter struct {
	fd  uintptr
	iov []syscall.Iovec
}

func newRunWriter(f *os.File) runWriter { return runWriter{fd: f.Fd()} }

// write writes bufs back to back at offset off, resuming after a
// partial write.
func (w *runWriter) write(off int64, bufs [][]byte) error {
	for len(bufs) > 0 {
		w.iov = w.iov[:0]
		for _, b := range bufs[:min(len(bufs), maxIovecs)] {
			v := syscall.Iovec{Base: unsafe.SliceData(b)}
			v.SetLen(len(b))
			w.iov = append(w.iov, v)
		}
		n, _, errno := syscall.Syscall6(syscall.SYS_PWRITEV, w.fd, uintptr(unsafe.Pointer(unsafe.SliceData(w.iov))),
			uintptr(len(w.iov)), uintptr(off), uintptr(uint64(off)>>(bits.UintSize-1)>>1), 0)
		switch {
		case errno == syscall.EINTR:
			continue
		case errno != 0:
			return os.NewSyscallError("pwritev", errno)
		case n == 0:
			return os.NewSyscallError("pwritev", syscall.EIO)
		}
		// Drop what was written: whole buffers, then a written prefix.
		off += int64(n)
		for rest := int(n); rest > 0; {
			if len(bufs[0]) <= rest {
				rest -= len(bufs[0])
				bufs = bufs[1:]
			} else {
				bufs[0] = bufs[0][rest:]
				rest = 0
			}
		}
	}
	return nil
}
