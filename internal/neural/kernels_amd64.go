package neural

// Implemented in kernels_amd64.s. The callers (gemvRows, sigmoidInto,
// tanhInto) check the slice lengths; these trust them.

//go:noescape
func gemvRowsVec(z, x, w []float64)

//go:noescape
func sigmoidVec(dst, src []float64)

//go:noescape
func tanhVec(dst, src []float64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

// haveVectorKernels reports whether the CPU has AVX2 and FMA and the OS
// saves the YMM registers, which the vector bodies need to run at all.
func haveVectorKernels() bool {
	const (
		fma     = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5 // CPUID.(7,0):EBX
		xmmYmm  = 1<<1 | 1<<2
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx || xgetbv()&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
