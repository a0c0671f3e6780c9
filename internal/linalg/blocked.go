package linalg

import "math"

// Cache-blocked kernels. The arithmetic contract that makes blocking
// safe for determinism is deliberately simple:
//
//	out[i][j] = fma-fold over k = 0..K-1 of a[i][k]·b[k][j]
//
// Every output element is a single fused-multiply-add chain in strictly
// increasing k, so the result is independent of every blocking factor
// (KC, NC, micro-tile shape) and of how rows are partitioned across
// workers — tiles only decide *which* element a loop touches next,
// never the order of one element's reduction. The same chain is
// produced by three interchangeable paths, property-tested for exact
// bit equality in blocked_test.go:
//
//   - the AVX2+FMA assembly micro-kernel (kernel_amd64.s), whose
//     VFMADD231PD applies the identical fused rounding in hardware;
//   - goKern4x8, the portable micro-kernel built on math.FMA, which Go
//     guarantees to round exactly once;
//   - the scalar math.FMA edge loops that absorb non-multiple-of-tile
//     fringes.
//
// Fused rounding differs from the reference kernels' two-rounding
// multiply-then-add, which is the one-time golden repin this package
// made when the blocked kernels landed (DESIGN.md §15);
// reference_test.go keeps the old kernels as the numerical spec.
const (
	gemmMR = 4   // micro-tile rows: four broadcast A scalars in flight
	gemmNR = 8   // micro-tile cols: two 4-wide vector accumulators
	gemmKC = 256 // k panel, keeps the packed B panel L2-resident
	gemmNC = 256 // j panel, bounds the pack buffer at KC·NC floats
)

// gemmAcc accumulates c += a·b (bTrans false) or c += a·bᵀ (bTrans
// true) over an M×N×K product with leading dimensions lda/ldb/ldc.
// B is repacked per (k-panel, j-panel) into contiguous gemmNR-wide
// column tiles so the micro-kernel streams it with unit stride; the
// transposed flavor exists for the Cholesky panel update, which
// multiplies a trailing block by a panel's transpose without
// materializing it. When par is set, row quads fan out on the shared
// pool; packing stays on the caller so every worker reads one shared
// read-only panel.
func gemmAcc(mM, nN, kK int, a []float64, lda int, b []float64, ldb int, bTrans bool, c []float64, ldc int, par bool) {
	if mM <= 0 || nN <= 0 || kK <= 0 {
		return
	}
	kcMax := min(gemmKC, kK)
	ncMax := min(gemmNC, (nN/gemmNR)*gemmNR)
	var bp []float64
	if ncMax > 0 {
		bp = make([]float64, kcMax*ncMax)
	}
	for k0 := 0; k0 < kK; k0 += gemmKC {
		kc := min(gemmKC, kK-k0)
		for j0 := 0; j0 < nN; j0 += gemmNC {
			nc := min(gemmNC, nN-j0)
			ntiles := nc / gemmNR
			packB(bp, b, ldb, bTrans, k0, kc, j0, ntiles)
			quads := mM / gemmMR
			runQuads := func(lo, hi int) {
				for q := lo; q < hi; q++ {
					i := q * gemmMR
					for t := 0; t < ntiles; t++ {
						kern4x8(kc, a[i*lda+k0:], lda, bp[t*kc*gemmNR:], c[i*ldc+j0+t*gemmNR:], ldc)
					}
					for j := j0 + ntiles*gemmNR; j < j0+nc; j++ {
						for r := i; r < i+gemmMR; r++ {
							c[r*ldc+j] = fmaDotEdge(kc, a[r*lda+k0:], b, ldb, bTrans, k0, j, c[r*ldc+j])
						}
					}
				}
			}
			if par && quads > 1 {
				ParallelFor(quads, 1, runQuads)
			} else if quads > 0 {
				runQuads(0, quads)
			}
			for i := quads * gemmMR; i < mM; i++ {
				for j := j0; j < j0+nc; j++ {
					c[i*ldc+j] = fmaDotEdge(kc, a[i*lda+k0:], b, ldb, bTrans, k0, j, c[i*ldc+j])
				}
			}
		}
	}
}

// packB copies the (k0..k0+kc)×(j0..j0+ntiles·NR) panel of B — or of
// Bᵀ — into gemmNR-wide column tiles laid out k-major, the layout the
// micro-kernel consumes with stride gemmNR.
func packB(bp, b []float64, ldb int, bTrans bool, k0, kc, j0, ntiles int) {
	for t := 0; t < ntiles; t++ {
		dst := bp[t*kc*gemmNR:]
		if bTrans {
			for k := 0; k < kc; k++ {
				col := k0 + k
				for j := 0; j < gemmNR; j++ {
					dst[k*gemmNR+j] = b[(j0+t*gemmNR+j)*ldb+col]
				}
			}
		} else {
			src := b[k0*ldb+j0+t*gemmNR:]
			for k := 0; k < kc; k++ {
				copy(dst[k*gemmNR:k*gemmNR+gemmNR], src[k*ldb:k*ldb+gemmNR])
			}
		}
	}
}

// fmaDotEdge extends acc by the kc-term fused chain for one fringe
// element — the same per-element order the micro-kernel applies.
func fmaDotEdge(kc int, arow, b []float64, ldb int, bTrans bool, k0, j int, acc float64) float64 {
	if bTrans {
		brow := b[j*ldb+k0:]
		for k := 0; k < kc; k++ {
			acc = math.FMA(arow[k], brow[k], acc)
		}
		return acc
	}
	for k := 0; k < kc; k++ {
		acc = math.FMA(arow[k], b[(k0+k)*ldb+j], acc)
	}
	return acc
}

// goKern4x8 is the portable micro-kernel: a 4×8 output tile updated by
// a kc-deep fused-multiply-add chain per element. math.FMA rounds
// exactly once per term — the same fused semantics as the VFMADD
// assembly path — so both kernels produce identical bits and the
// choice between them is invisible to callers.
func goKern4x8(kc int, a []float64, lda int, b []float64, c []float64, ldc int) {
	for j := 0; j < gemmNR; j++ {
		c0, c1, c2, c3 := c[j], c[ldc+j], c[2*ldc+j], c[3*ldc+j]
		for k := 0; k < kc; k++ {
			bv := b[k*gemmNR+j]
			c0 = math.FMA(a[k], bv, c0)
			c1 = math.FMA(a[lda+k], bv, c1)
			c2 = math.FMA(a[2*lda+k], bv, c2)
			c3 = math.FMA(a[3*lda+k], bv, c3)
		}
		c[j], c[ldc+j], c[2*ldc+j], c[3*ldc+j] = c0, c1, c2, c3
	}
}

// cholNB is the Cholesky panel width: wide enough that the GEMM update
// dominates (it carries ~n/NB of the flops per column), narrow enough
// that the scalar in-panel dots stay a small fraction of the total.
// Bits depend on this constant — it decides which prefix terms ride
// the fused GEMM chain versus the plain panel dot — so it is part of
// the kernel definition, not a tuning knob to flip casually.
const cholNB = 32

// blockedCholesky is Cholesky's kernel, with par deciding whether the
// panel updates fan out: a left-looking panel factorization. For each
// NB-wide panel the bulk of the prefix — the dot products against all
// columns left of the panel — is one gemmAcc call (rows × NB × p flops
// through the micro-kernel); the remaining in-panel prefix terms use
// plain scalar dots. Per element the order is fixed by construction:
// fused chain over k < p, then plain chain over p ≤ k < j, then one
// subtraction — identical whether the row quads ran serial or
// parallel.
func blockedCholesky(m *Matrix, par bool) (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, cholDimErr(m)
	}
	n := m.Rows
	l := NewMatrix(n, n)
	if n == 0 {
		return l, nil
	}
	scratch := make([]float64, n*cholNB)
	for p := 0; p < n; p += cholNB {
		nb := min(cholNB, n-p)
		rows := n - p
		s := scratch[:rows*nb]
		for i := range s {
			s[i] = 0
		}
		if p > 0 {
			// S[i-p][jj] = Σ_{k<p} l[i][k]·l[p+jj][k] for all rows i ≥ p.
			gemmAcc(rows, nb, p, l.Data[p*n:], n, l.Data[p*n:], n, true, s, nb, par)
		}
		// Factor the nb×nb diagonal block serially (its columns are
		// sequentially dependent and the block is tiny).
		for jj := 0; jj < nb; jj++ {
			j := p + jj
			acc := s[jj*nb+jj]
			lj := l.Data[j*n+p : j*n+j]
			for _, v := range lj {
				acc += v * v
			}
			d := m.Data[j*n+j] - acc
			if d <= 0 || math.IsNaN(d) {
				return nil, ErrNotPositiveDefinite
			}
			ljj := math.Sqrt(d)
			l.Data[j*n+j] = ljj
			for i := j + 1; i < p+nb; i++ {
				acc := s[(i-p)*nb+jj]
				li := l.Data[i*n+p : i*n+j]
				for k, v := range li {
					acc += v * lj[k]
				}
				l.Data[i*n+j] = (m.Data[i*n+j] - acc) / ljj
			}
		}
		// Rows below the panel: each computes its nb entries left to
		// right. Rows are independent — the parallel cut for this phase.
		tail := n - (p + nb)
		if tail <= 0 {
			continue
		}
		body := func(lo, hi int) {
			for i := p + nb + lo; i < p+nb+hi; i++ {
				si := s[(i-p)*nb:]
				li := l.Data[i*n:]
				for jj := 0; jj < nb; jj++ {
					j := p + jj
					lj := l.Data[j*n:]
					acc := si[jj]
					for k := p; k < j; k++ {
						acc += li[k] * lj[k]
					}
					li[j] = (m.Data[i*n+j] - acc) / lj[j]
				}
			}
		}
		if par && tail >= rowGrain {
			ParallelFor(tail, rowGrain, body)
		} else {
			body(0, tail)
		}
	}
	return l, nil
}
