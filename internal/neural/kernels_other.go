//go:build !amd64

package neural

// There are no vector bodies off amd64: haveVectorKernels keeps
// vectorKernels false, and the portable bodies stand in for the names.

func haveVectorKernels() bool { return false }

func gemvRowsVec(z, x, w []float64) { gemvRowsGo(z, x, w) }
func sigmoidVec(dst, src []float64) { sigmoidIntoGo(dst, src) }
func tanhVec(dst, src []float64)    { tanhIntoGo(dst, src) }
