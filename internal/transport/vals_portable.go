//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package transport

import "io"

// Big-endian (or unlisted) host: float64 memory is not the wire
// encoding, so the payload is staged through a frame buffer.

func readVals(r io.Reader, vals []float64) error { return readValsPortable(r, vals) }

// writePieces writes the payload pieces through the portable writer, one
// after the other.
func (fw *frameWriter) writePieces(w io.Writer, pieces [][]float64) error {
	for _, p := range pieces {
		if len(p) == 0 {
			continue
		}
		if err := writeValsPortable(w, p); err != nil {
			return err
		}
	}
	return nil
}
