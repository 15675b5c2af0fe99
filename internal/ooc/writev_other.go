//go:build !linux

package ooc

import "os"

// runWriter writes runs of file-adjacent records, one WriteAt per
// record.
type runWriter struct{ f *os.File }

func newRunWriter(f *os.File) runWriter { return runWriter{f: f} }

// write writes bufs back to back at offset off.
func (w *runWriter) write(off int64, bufs [][]byte) error {
	for _, b := range bufs {
		if _, err := w.f.WriteAt(b, off); err != nil {
			return err
		}
		off += int64(len(b))
	}
	return nil
}
