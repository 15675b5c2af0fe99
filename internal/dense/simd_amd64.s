// AVX2/FMA implementations of the SIMD span/chain/dot primitives. Each routine
// computes, lane by lane, exactly the math.FMA recipe of its portable
// twin in simd_prims.go (one rounding per multiply-add, fixed four-lane
// dot accumulation reduced as (acc0+acc2)+(acc1+acc3), scalar FMA tails),
// so the two paths are bitwise interchangeable. Only dispatched when
// CPUID reports FMA+AVX2 with OS-enabled YMM state (see simd_amd64.go).

#include "textflag.h"

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fnmaSpan1Asm(d, a *float64, n int, la float64)
// d[j] = fma(-la, a[j], d[j])
TEXT ·fnmaSpan1Asm(SB), NOSPLIT, $0-32
	MOVQ         d+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD la+24(FP), Y12

s1loop16:
	CMPQ         CX, $16
	JLT          s1loop4
	VMOVUPD      (DI), Y0
	VMOVUPD      32(DI), Y1
	VMOVUPD      64(DI), Y2
	VMOVUPD      96(DI), Y3
	VFNMADD231PD (SI), Y12, Y0
	VFNMADD231PD 32(SI), Y12, Y1
	VFNMADD231PD 64(SI), Y12, Y2
	VFNMADD231PD 96(SI), Y12, Y3
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, SI
	SUBQ         $16, CX
	JMP          s1loop16

s1loop4:
	CMPQ         CX, $4
	JLT          s1tail
	VMOVUPD      (DI), Y0
	VFNMADD231PD (SI), Y12, Y0
	VMOVUPD      Y0, (DI)
	ADDQ         $32, DI
	ADDQ         $32, SI
	SUBQ         $4, CX
	JMP          s1loop4

s1tail:
	TESTQ        CX, CX
	JE           s1done
	VMOVSD       (DI), X0
	VFNMADD231SD (SI), X12, X0
	VMOVSD       X0, (DI)
	ADDQ         $8, DI
	ADDQ         $8, SI
	DECQ         CX
	JMP          s1tail

s1done:
	VZEROUPPER
	RET

// func fnmaSpan2Asm(d, a, b *float64, n int, la, lb float64)
// d[j] = fma(-lb, b[j], fma(-la, a[j], d[j]))
TEXT ·fnmaSpan2Asm(SB), NOSPLIT, $0-48
	MOVQ         d+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), R8
	MOVQ         n+24(FP), CX
	VBROADCASTSD la+32(FP), Y12
	VBROADCASTSD lb+40(FP), Y13

s2loop16:
	CMPQ         CX, $16
	JLT          s2loop4
	VMOVUPD      (DI), Y0
	VMOVUPD      32(DI), Y1
	VMOVUPD      64(DI), Y2
	VMOVUPD      96(DI), Y3
	VFNMADD231PD (SI), Y12, Y0
	VFNMADD231PD 32(SI), Y12, Y1
	VFNMADD231PD 64(SI), Y12, Y2
	VFNMADD231PD 96(SI), Y12, Y3
	VFNMADD231PD (R8), Y13, Y0
	VFNMADD231PD 32(R8), Y13, Y1
	VFNMADD231PD 64(R8), Y13, Y2
	VFNMADD231PD 96(R8), Y13, Y3
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, SI
	ADDQ         $128, R8
	SUBQ         $16, CX
	JMP          s2loop16

s2loop4:
	CMPQ         CX, $4
	JLT          s2tail
	VMOVUPD      (DI), Y0
	VFNMADD231PD (SI), Y12, Y0
	VFNMADD231PD (R8), Y13, Y0
	VMOVUPD      Y0, (DI)
	ADDQ         $32, DI
	ADDQ         $32, SI
	ADDQ         $32, R8
	SUBQ         $4, CX
	JMP          s2loop4

s2tail:
	TESTQ        CX, CX
	JE           s2done
	VMOVSD       (DI), X0
	VFNMADD231SD (SI), X12, X0
	VFNMADD231SD (R8), X13, X0
	VMOVSD       X0, (DI)
	ADDQ         $8, DI
	ADDQ         $8, SI
	ADDQ         $8, R8
	DECQ         CX
	JMP          s2tail

s2done:
	VZEROUPPER
	RET

// func fnmaSpan4Asm(d, a, b, c, e *float64, n int, la, lb, lc, ld float64)
// d[j] = fma(-ld, e[j], fma(-lc, c[j], fma(-lb, b[j], fma(-la, a[j], d[j]))))
TEXT ·fnmaSpan4Asm(SB), NOSPLIT, $0-80
	MOVQ         d+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), R8
	MOVQ         c+24(FP), R9
	MOVQ         e+32(FP), R10
	MOVQ         n+40(FP), CX
	VBROADCASTSD la+48(FP), Y12
	VBROADCASTSD lb+56(FP), Y13
	VBROADCASTSD lc+64(FP), Y14
	VBROADCASTSD ld+72(FP), Y15

s4loop16:
	CMPQ         CX, $16
	JLT          s4loop4
	VMOVUPD      (DI), Y0
	VMOVUPD      32(DI), Y1
	VMOVUPD      64(DI), Y2
	VMOVUPD      96(DI), Y3
	VFNMADD231PD (SI), Y12, Y0
	VFNMADD231PD 32(SI), Y12, Y1
	VFNMADD231PD 64(SI), Y12, Y2
	VFNMADD231PD 96(SI), Y12, Y3
	VFNMADD231PD (R8), Y13, Y0
	VFNMADD231PD 32(R8), Y13, Y1
	VFNMADD231PD 64(R8), Y13, Y2
	VFNMADD231PD 96(R8), Y13, Y3
	VFNMADD231PD (R9), Y14, Y0
	VFNMADD231PD 32(R9), Y14, Y1
	VFNMADD231PD 64(R9), Y14, Y2
	VFNMADD231PD 96(R9), Y14, Y3
	VFNMADD231PD (R10), Y15, Y0
	VFNMADD231PD 32(R10), Y15, Y1
	VFNMADD231PD 64(R10), Y15, Y2
	VFNMADD231PD 96(R10), Y15, Y3
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, SI
	ADDQ         $128, R8
	ADDQ         $128, R9
	ADDQ         $128, R10
	SUBQ         $16, CX
	JMP          s4loop16

s4loop4:
	CMPQ         CX, $4
	JLT          s4tail
	VMOVUPD      (DI), Y0
	VFNMADD231PD (SI), Y12, Y0
	VFNMADD231PD (R8), Y13, Y0
	VFNMADD231PD (R9), Y14, Y0
	VFNMADD231PD (R10), Y15, Y0
	VMOVUPD      Y0, (DI)
	ADDQ         $32, DI
	ADDQ         $32, SI
	ADDQ         $32, R8
	ADDQ         $32, R9
	ADDQ         $32, R10
	SUBQ         $4, CX
	JMP          s4loop4

s4tail:
	TESTQ        CX, CX
	JE           s4done
	VMOVSD       (DI), X0
	VFNMADD231SD (SI), X12, X0
	VFNMADD231SD (R8), X13, X0
	VFNMADD231SD (R9), X14, X0
	VFNMADD231SD (R10), X15, X0
	VMOVSD       X0, (DI)
	ADDQ         $8, DI
	ADDQ         $8, SI
	ADDQ         $8, R8
	ADDQ         $8, R9
	ADDQ         $8, R10
	DECQ         CX
	JMP          s4tail

s4done:
	VZEROUPPER
	RET

// func dot1Asm(p, q *float64, n int) float64
// Four-lane FMA accumulation, reduced (acc0+acc2)+(acc1+acc3), scalar
// FMA tail — the dotOneGo contract.
TEXT ·dot1Asm(SB), NOSPLIT, $0-32
	MOVQ   p+0(FP), DI
	MOVQ   q+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y0, Y0, Y0

d1loop4:
	CMPQ        CX, $4
	JLT         d1reduce
	VMOVUPD     (DI), Y4
	VFMADD231PD (SI), Y4, Y0
	ADDQ        $32, DI
	ADDQ        $32, SI
	SUBQ        $4, CX
	JMP         d1loop4

d1reduce:
	VEXTRACTF128 $1, Y0, X4
	VADDPD       X4, X0, X0
	VHADDPD      X0, X0, X0

d1tail:
	TESTQ       CX, CX
	JE          d1done
	VMOVSD      (DI), X4
	VFMADD231SD (SI), X4, X0
	ADDQ        $8, DI
	ADDQ        $8, SI
	DECQ        CX
	JMP         d1tail

d1done:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func dot4Asm(p, q0, q1, q2, q3 *float64, n int) (s0, s1, s2, s3 float64)
// Four dot products against one shared pass over p; each column follows
// the exact dot1Asm/dotOneGo accumulation contract.
TEXT ·dot4Asm(SB), NOSPLIT, $0-80
	MOVQ   p+0(FP), DI
	MOVQ   q0+8(FP), SI
	MOVQ   q1+16(FP), R8
	MOVQ   q2+24(FP), R9
	MOVQ   q3+32(FP), R10
	MOVQ   n+40(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

d4loop4:
	CMPQ        CX, $4
	JLT         d4reduce
	VMOVUPD     (DI), Y4
	VFMADD231PD (SI), Y4, Y0
	VFMADD231PD (R8), Y4, Y1
	VFMADD231PD (R9), Y4, Y2
	VFMADD231PD (R10), Y4, Y3
	ADDQ        $32, DI
	ADDQ        $32, SI
	ADDQ        $32, R8
	ADDQ        $32, R9
	ADDQ        $32, R10
	SUBQ        $4, CX
	JMP         d4loop4

d4reduce:
	VEXTRACTF128 $1, Y0, X4
	VADDPD       X4, X0, X0
	VHADDPD      X0, X0, X0
	VEXTRACTF128 $1, Y1, X4
	VADDPD       X4, X1, X1
	VHADDPD      X1, X1, X1
	VEXTRACTF128 $1, Y2, X4
	VADDPD       X4, X2, X2
	VHADDPD      X2, X2, X2
	VEXTRACTF128 $1, Y3, X4
	VADDPD       X4, X3, X3
	VHADDPD      X3, X3, X3

d4tail:
	TESTQ       CX, CX
	JE          d4done
	VMOVSD      (DI), X4
	VFMADD231SD (SI), X4, X0
	VFMADD231SD (R8), X4, X1
	VFMADD231SD (R9), X4, X2
	VFMADD231SD (R10), X4, X3
	ADDQ        $8, DI
	ADDQ        $8, SI
	ADDQ        $8, R8
	ADDQ        $8, R9
	ADDQ        $8, R10
	DECQ        CX
	JMP         d4tail

d4done:
	VMOVSD X0, s0+48(FP)
	VMOVSD X1, s1+56(FP)
	VMOVSD X2, s2+64(FP)
	VMOVSD X3, s3+72(FP)
	VZEROUPPER
	RET

// func addSpanAsm(d, s *float64, n int)
// d[j] += s[j]: plain element adds, bitwise identical to the scalar loop.
TEXT ·addSpanAsm(SB), NOSPLIT, $0-24
	MOVQ d+0(FP), DI
	MOVQ s+8(FP), SI
	MOVQ n+16(FP), CX

aloop16:
	CMPQ    CX, $16
	JLT     aloop4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VADDPD  (SI), Y0, Y0
	VADDPD  32(SI), Y1, Y1
	VADDPD  64(SI), Y2, Y2
	VADDPD  96(SI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     aloop16

aloop4:
	CMPQ    CX, $4
	JLT     atail
	VMOVUPD (DI), Y0
	VADDPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     aloop4

atail:
	TESTQ  CX, CX
	JE     adone
	VMOVSD (DI), X0
	VADDSD (SI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JMP    atail

adone:
	VZEROUPPER
	RET

// func scatterRuns4Asm(d0, d1, d2, d3, s0, s1, s2, s3 *float64, runs *IndexRun, nruns int)
// For each run {J0, C0, Len} (three int32 fields, 12-byte stride — the
// IndexRun layout), di[C0+t] += si[J0+t] for t in [0,Len) over four row
// pairs. Plain element adds, bitwise identical to the scalar loops; one
// call covers a whole 4-row group of the extend-add scatter, so the run
// decode and the adds of short fragmented runs all stay in registers.
TEXT ·scatterRuns4Asm(SB), NOSPLIT, $0-80
	MOVQ d0+0(FP), DI
	MOVQ d1+8(FP), SI
	MOVQ d2+16(FP), R8
	MOVQ d3+24(FP), R9
	MOVQ s0+32(FP), R10
	MOVQ s1+40(FP), R11
	MOVQ s2+48(FP), R12
	MOVQ s3+56(FP), R13
	MOVQ runs+64(FP), R14
	MOVQ nruns+72(FP), R15

srnext:
	TESTQ   R15, R15
	JE      srdone
	MOVLQSX 0(R14), AX  // J0: source element index
	MOVLQSX 4(R14), BX  // C0: destination element index
	MOVLQSX 8(R14), CX  // Len
	ADDQ    $12, R14
	DECQ    R15

srv4:
	CMPQ    CX, $4
	JLT     srtail
	VMOVUPD (DI)(BX*8), Y0
	VMOVUPD (SI)(BX*8), Y1
	VMOVUPD (R8)(BX*8), Y2
	VMOVUPD (R9)(BX*8), Y3
	VADDPD  (R10)(AX*8), Y0, Y0
	VADDPD  (R11)(AX*8), Y1, Y1
	VADDPD  (R12)(AX*8), Y2, Y2
	VADDPD  (R13)(AX*8), Y3, Y3
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, (SI)(BX*8)
	VMOVUPD Y2, (R8)(BX*8)
	VMOVUPD Y3, (R9)(BX*8)
	ADDQ    $4, AX
	ADDQ    $4, BX
	SUBQ    $4, CX
	JMP     srv4

srtail:
	TESTQ  CX, CX
	JE     srnext
	VMOVSD (DI)(BX*8), X0
	VADDSD (R10)(AX*8), X0, X0
	VMOVSD X0, (DI)(BX*8)
	VMOVSD (SI)(BX*8), X1
	VADDSD (R11)(AX*8), X1, X1
	VMOVSD X1, (SI)(BX*8)
	VMOVSD (R8)(BX*8), X2
	VADDSD (R12)(AX*8), X2, X2
	VMOVSD X2, (R8)(BX*8)
	VMOVSD (R9)(BX*8), X3
	VADDSD (R13)(AX*8), X3, X3
	VMOVSD X3, (R9)(BX*8)
	INCQ   AX
	INCQ   BX
	DECQ   CX
	JMP    srtail

srdone:
	VZEROUPPER
	RET

// func fnmaChain1Asm(d, src *float64, ss int, coef *float64, cs, nk, n int)
// One FMA chain per element of the n-span d, held in registers across
// the nk sources: d[c] = fma(-coef[t*cs], src[t*ss+c], d[c]) for t in
// ascending order — the fnmaChain1Go contract. Column blocks of 16/8/4
// (4/2/1 YMM accumulators), then one scalar chain per tail column.
// Requires nk >= 1 (the dispatch wrapper skips empty chains).
TEXT ·fnmaChain1Asm(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ss+16(FP), R8
	SHLQ $3, R8
	MOVQ coef+24(FP), R9
	MOVQ cs+32(FP), R10
	SHLQ $3, R10
	MOVQ nk+40(FP), R11
	MOVQ n+48(FP), CX

c1blk16:
	CMPQ    CX, $16
	JLT     c1blk8
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    SI, AX
	MOVQ    R9, BX
	MOVQ    R11, DX

c1k16:
	VBROADCASTSD (BX), Y12
	VFNMADD231PD (AX), Y12, Y0
	VFNMADD231PD 32(AX), Y12, Y1
	VFNMADD231PD 64(AX), Y12, Y2
	VFNMADD231PD 96(AX), Y12, Y3
	ADDQ         R8, AX
	ADDQ         R10, BX
	DECQ         DX
	JNE          c1k16
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, SI
	SUBQ         $16, CX
	JMP          c1blk16

c1blk8:
	CMPQ    CX, $8
	JLT     c1blk4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ    SI, AX
	MOVQ    R9, BX
	MOVQ    R11, DX

c1k8:
	VBROADCASTSD (BX), Y12
	VFNMADD231PD (AX), Y12, Y0
	VFNMADD231PD 32(AX), Y12, Y1
	ADDQ         R8, AX
	ADDQ         R10, BX
	DECQ         DX
	JNE          c1k8
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	ADDQ         $64, DI
	ADDQ         $64, SI
	SUBQ         $8, CX

c1blk4:
	CMPQ    CX, $4
	JLT     c1tail
	VMOVUPD (DI), Y0
	MOVQ    SI, AX
	MOVQ    R9, BX
	MOVQ    R11, DX

c1k4:
	VBROADCASTSD (BX), Y12
	VFNMADD231PD (AX), Y12, Y0
	ADDQ         R8, AX
	ADDQ         R10, BX
	DECQ         DX
	JNE          c1k4
	VMOVUPD      Y0, (DI)
	ADDQ         $32, DI
	ADDQ         $32, SI
	SUBQ         $4, CX

c1tail:
	TESTQ  CX, CX
	JE     c1done
	VMOVSD (DI), X0
	MOVQ   SI, AX
	MOVQ   R9, BX
	MOVQ   R11, DX

c1k1:
	VMOVSD       (BX), X12
	VFNMADD231SD (AX), X12, X0
	ADDQ         R8, AX
	ADDQ         R10, BX
	DECQ         DX
	JNE          c1k1
	VMOVSD       X0, (DI)
	ADDQ         $8, DI
	ADDQ         $8, SI
	DECQ         CX
	JMP          c1tail

c1done:
	VZEROUPPER
	RET

// func fnmaRows4Asm(x *float64, rows *int, ngroups, m int, src *float64, ss int, coef *float64, cs, nk int)
// fnmaChain1Asm over ngroups groups of four rows at once: row r of the
// 4*ngroups rows is x[rows[r]*m:] (m elements, anywhere in x, addressed
// as the group's first row plus a byte offset each), its coefficients
// coef[r*cs+t] (contiguous in t). Within a group each source row
// src[t*ss:] is loaded once per column block and feeds all four rows'
// chains. Column blocks of 8 (4 rows x 2 YMM = 8 accumulators) and 4,
// then four scalar chains per tail column. Per element the operations
// are exactly those of fnmaChain4Go. Requires nk >= 1 and ngroups >= 1.
TEXT ·fnmaRows4Asm(SB), NOSPLIT, $0-72
	MOVQ rows+8(FP), R11        // the group's row indices
	MOVQ ss+40(FP), R8
	SHLQ $3, R8
	MOVQ coef+48(FP), R9
	MOVQ cs+56(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R14      // 3 coefficient rows

r4group:
	MOVQ  m+24(FP), DX
	SHLQ  $3, DX                // row bytes
	MOVQ  (R11), DI
	MOVQ  8(R11), R12
	MOVQ  16(R11), R15
	MOVQ  24(R11), R13
	SUBQ  DI, R12
	SUBQ  DI, R15
	SUBQ  DI, R13
	IMULQ DX, DI
	IMULQ DX, R12               // row 1 - row 0, in bytes
	IMULQ DX, R15               // row 2 - row 0
	IMULQ DX, R13               // row 3 - row 0
	ADDQ  x+0(FP), DI
	MOVQ  src+32(FP), SI
	MOVQ  m+24(FP), CX

c4blk8:
	CMPQ    CX, $8
	JLT     c4blk4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R12*1), Y2
	VMOVUPD 32(DI)(R12*1), Y3
	VMOVUPD (DI)(R15*1), Y4
	VMOVUPD 32(DI)(R15*1), Y5
	VMOVUPD (DI)(R13*1), Y6
	VMOVUPD 32(DI)(R13*1), Y7
	MOVQ    SI, AX
	MOVQ    R9, BX
	MOVQ    nk+64(FP), DX

c4k8:
	VMOVUPD      (AX), Y8
	VMOVUPD      32(AX), Y9
	VBROADCASTSD (BX), Y10
	VBROADCASTSD (BX)(R10*1), Y11
	VBROADCASTSD (BX)(R10*2), Y12
	VBROADCASTSD (BX)(R14*1), Y13
	VFNMADD231PD Y8, Y10, Y0
	VFNMADD231PD Y9, Y10, Y1
	VFNMADD231PD Y8, Y11, Y2
	VFNMADD231PD Y9, Y11, Y3
	VFNMADD231PD Y8, Y12, Y4
	VFNMADD231PD Y9, Y12, Y5
	VFNMADD231PD Y8, Y13, Y6
	VFNMADD231PD Y9, Y13, Y7
	ADDQ         R8, AX
	ADDQ         $8, BX
	DECQ         DX
	JNE          c4k8
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, (DI)(R12*1)
	VMOVUPD      Y3, 32(DI)(R12*1)
	VMOVUPD      Y4, (DI)(R15*1)
	VMOVUPD      Y5, 32(DI)(R15*1)
	VMOVUPD      Y6, (DI)(R13*1)
	VMOVUPD      Y7, 32(DI)(R13*1)
	ADDQ         $64, DI
	ADDQ         $64, SI
	SUBQ         $8, CX
	JMP          c4blk8

c4blk4:
	CMPQ    CX, $4
	JLT     c4tail
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R12*1), Y2
	VMOVUPD (DI)(R15*1), Y4
	VMOVUPD (DI)(R13*1), Y6
	MOVQ    SI, AX
	MOVQ    R9, BX
	MOVQ    nk+64(FP), DX

c4k4:
	VMOVUPD      (AX), Y8
	VBROADCASTSD (BX), Y10
	VBROADCASTSD (BX)(R10*1), Y11
	VBROADCASTSD (BX)(R10*2), Y12
	VBROADCASTSD (BX)(R14*1), Y13
	VFNMADD231PD Y8, Y10, Y0
	VFNMADD231PD Y8, Y11, Y2
	VFNMADD231PD Y8, Y12, Y4
	VFNMADD231PD Y8, Y13, Y6
	ADDQ         R8, AX
	ADDQ         $8, BX
	DECQ         DX
	JNE          c4k4
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y2, (DI)(R12*1)
	VMOVUPD      Y4, (DI)(R15*1)
	VMOVUPD      Y6, (DI)(R13*1)
	ADDQ         $32, DI
	ADDQ         $32, SI
	SUBQ         $4, CX

c4tail:
	TESTQ  CX, CX
	JE     c4done
	VMOVSD (DI), X0
	VMOVSD (DI)(R12*1), X2
	VMOVSD (DI)(R15*1), X4
	VMOVSD (DI)(R13*1), X6
	MOVQ   SI, AX
	MOVQ   R9, BX
	MOVQ   nk+64(FP), DX

c4k1:
	VMOVSD       (AX), X8
	VMOVSD       (BX), X10
	VMOVSD       (BX)(R10*1), X11
	VMOVSD       (BX)(R10*2), X12
	VMOVSD       (BX)(R14*1), X13
	VFNMADD231SD X8, X10, X0
	VFNMADD231SD X8, X11, X2
	VFNMADD231SD X8, X12, X4
	VFNMADD231SD X8, X13, X6
	ADDQ         R8, AX
	ADDQ         $8, BX
	DECQ         DX
	JNE          c4k1
	VMOVSD       X0, (DI)
	VMOVSD       X2, (DI)(R12*1)
	VMOVSD       X4, (DI)(R15*1)
	VMOVSD       X6, (DI)(R13*1)
	ADDQ         $8, DI
	ADDQ         $8, SI
	DECQ         CX
	JMP          c4tail

c4done:
	ADDQ $32, R11
	LEAQ (R9)(R10*4), R9        // the next group's coefficient rows
	MOVQ ngroups+16(FP), AX
	SHLQ $5, AX
	ADDQ rows+8(FP), AX
	CMPQ R11, AX
	JB   r4group
	VZEROUPPER
	RET
