// Package byteview provides zero-copy byte views over numeric slices.
//
// The platforms stage shared data through byte buffers
// (core.SharedVariableBuffer is a registry of []byte); the benchmark kernels
// work on typed slices ([]float64, []uint32, []complex128). These helpers
// alias the same memory so staging moves the real bytes without copies or
// per-element encoding.
//
// Safety: the returned slice aliases the argument's backing array. The
// caller must keep the typed slice reachable for as long as the view is
// used, must not grow either slice (append), and must expect the view to
// observe every write through the typed slice. All uses in this repository
// register views of long-lived benchmark arrays, which satisfies these
// rules. Layout note: views expose the host's native endianness, which is
// fine because they are only ever read back on the same machine.
package byteview

import "unsafe"

// Float64s returns a byte view over s (8 bytes per element).
func Float64s(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

// Uint32s returns a byte view over s (4 bytes per element).
func Uint32s(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// Int32s returns a byte view over s (4 bytes per element).
func Int32s(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// Complex128s returns a byte view over s (16 bytes per element).
func Complex128s(s []complex128) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*16)
}

// Bytes returns s itself; it exists so generated code can treat every
// buffer uniformly.
func Bytes(s []byte) []byte { return s }

// Uint64s returns a byte view over s (8 bytes per element).
func Uint64s(s []uint64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}
