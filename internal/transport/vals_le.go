//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package transport

import (
	"io"
	"unsafe"
)

// On a little-endian host the wire encoding of a float payload — each
// value's IEEE-754 bits, little-endian — is byte for byte the memory of
// the []float64, so frames move it without a staging copy.

// valBytes returns the memory of vals as bytes. It is the package's only
// use of unsafe: the view aliases vals (same lifetime, same owner) and is
// the wire encoding only under this file's build constraint.
func valBytes(vals []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
}

func readVals(r io.Reader, vals []float64) error {
	_, err := io.ReadFull(r, valBytes(vals))
	return err
}

// writePieces writes the payload pieces as one vectored write: they go
// to the kernel from their own memory.
func (fw *frameWriter) writePieces(w io.Writer, pieces [][]float64) error {
	iov := fw.iov[:0]
	for _, p := range pieces {
		if len(p) > 0 {
			iov = append(iov, valBytes(p))
		}
	}
	fw.iov, fw.bufs = iov, iov
	_, err := fw.bufs.WriteTo(w)
	clear(iov) // the scratch must not pin the payload past this frame
	return err
}
