//go:build !linux

package front

// hugePages is a no-op where the kernel takes no huge-page advice.
func hugePages([]float64) {}
