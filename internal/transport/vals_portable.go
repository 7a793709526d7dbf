//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package transport

import "io"

// Big-endian (or unlisted) host: float64 memory is not the wire
// encoding, so the payload is staged through a frame buffer.

func writeVals(w io.Writer, vals []float64) error { return writeValsPortable(w, vals) }

func readVals(r io.Reader, vals []float64) error { return readValsPortable(r, vals) }
