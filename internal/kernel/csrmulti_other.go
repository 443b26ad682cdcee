//go:build !amd64

package kernel

import "repro/internal/matrix"

// vectorBody is false off amd64: csrMultiRows runs its Go bodies at every
// width.
var vectorBody = false

func csrMultiRowsVec[I matrix.Index](m *matrix.CSR[I], nv int, y, x []float64, lo, hi int) bool {
	return false
}

func bcsrMultiRowsVec[I matrix.Index](m *matrix.BCSR[I], nv int, y, x []float64, lo, hi int) bool {
	return false
}
