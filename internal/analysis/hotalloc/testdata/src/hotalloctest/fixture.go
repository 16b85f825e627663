// Package hotalloctest plants heap allocations inside //oms:hotpath
// functions for the hotalloc analyzer — closures, literals, unguarded
// make, naive append, defer-in-loop, interface boxing — alongside the
// compliant shapes (scratch reuse, cap-guarded growth, pointer-shaped
// values) that must stay silent.
package hotalloctest

type match struct {
	Ref int
	Sim int16
}

type scratch struct {
	sims []int16
	out  []match
}

// notHot is unannotated: anything goes.
func notHot(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i*i)
	}
	return out
}

// hotClosureAndLiterals allocates three different ways.
//
//oms:hotpath
func hotClosureAndLiterals(rows [][]uint64) int {
	f := func(r []uint64) int { return len(r) } // want `hot path hotClosureAndLiterals must be allocation-free: closure literal forces an allocation`
	seen := map[int]bool{}                      // want `hot path hotClosureAndLiterals must be allocation-free: map literal allocates`
	weights := []int16{1, 2, 3}                 // want `hot path hotClosureAndLiterals must be allocation-free: slice literal allocates`
	total := 0
	for _, r := range rows {
		total += f(r) + int(weights[0])
		seen[total] = true
	}
	return total
}

// hotAddrLiteralAndNew escapes structs to the heap.
//
//oms:hotpath
func hotAddrLiteralAndNew() *match {
	m := &match{Ref: 1} // want `hot path hotAddrLiteralAndNew must be allocation-free: &composite literal escapes to the heap`
	n := new(match)     // want `hot path hotAddrLiteralAndNew must be allocation-free: new allocates`
	n.Sim = m.Sim
	return n
}

// hotUnguardedMake reallocates the buffer every call.
//
//oms:hotpath
func hotUnguardedMake(n int) int {
	buf := make([]int16, n) // want `hot path hotUnguardedMake must be allocation-free: make allocates on every call`
	for i := range buf {
		buf[i] = int16(i)
	}
	return int(buf[n-1])
}

// hotGuardedMakeIsFine grows a reused scratch only when it is too
// small — amortized zero allocations.
//
//oms:hotpath
func hotGuardedMakeIsFine(sc *scratch, n int) int16 {
	if cap(sc.sims) < n {
		sc.sims = make([]int16, n)
	}
	sims := sc.sims[:n]
	for i := range sims {
		sims[i] = int16(i)
	}
	return sims[0]
}

// hotNaiveAppend grows a fresh slice from nil.
//
//oms:hotpath
func hotNaiveAppend(sims []int16) []match {
	var out []match
	for i, s := range sims {
		out = append(out, match{Ref: i, Sim: s}) // want `hot path hotNaiveAppend must be allocation-free: append to out may grow an unpreallocated buffer`
	}
	return out
}

// hotAppendToParam appends to a caller-owned slice of unknown
// capacity.
//
//oms:hotpath
func hotAppendToParam(dst []match, s int16) []match {
	return append(dst, match{Sim: s}) // want `hot path hotAppendToParam must be allocation-free: append to dst may grow an unpreallocated buffer`
}

// hotScratchAppendIsFine reslices a reused buffer to zero length and
// appends within its capacity.
//
//oms:hotpath
func hotScratchAppendIsFine(sc *scratch, sims []int16) []match {
	out := sc.out[:0]
	for i, s := range sims {
		out = append(out, match{Ref: i, Sim: s})
	}
	sc.out = out
	return out
}

// hotDeferInLoop pays a deferred frame per iteration.
//
//oms:hotpath
func hotDeferInLoop(fns []func()) {
	for _, fn := range fns {
		defer fn() // want `hot path hotDeferInLoop must be allocation-free: defer inside a loop allocates a deferred frame per iteration`
	}
}

// hotTopLevelDeferIsFine defers once, outside any loop.
//
//oms:hotpath
func hotTopLevelDeferIsFine(release func()) int {
	defer release()
	return 1
}

func sink(vs ...any) {}

func typed(v any) {}

// hotBoxing converts scored values to interfaces four ways.
//
//oms:hotpath
func hotBoxing(m match) any {
	sink(m.Sim)    // want `hot path hotBoxing must be allocation-free: argument boxes a concrete value into an interface parameter`
	typed(m)       // want `hot path hotBoxing must be allocation-free: argument boxes a concrete value into an interface parameter`
	_ = any(m.Ref) // want `hot path hotBoxing must be allocation-free: conversion to interface boxes the value`
	var v any = m  // want `hot path hotBoxing must be allocation-free: declaration boxes a concrete value into an interface`
	v = m.Sim      // want `hot path hotBoxing must be allocation-free: assignment boxes a concrete value into an interface`
	_ = v
	return m // want `hot path hotBoxing must be allocation-free: return boxes a concrete value into an interface result`
}

// hotPointerShapedIsFine passes pointer-shaped values through
// interfaces: no boxing allocation.
//
//oms:hotpath
func hotPointerShapedIsFine(m *match, fn func()) any {
	typed(m)
	var v any = fn
	_ = v
	return m
}

// hotAllowedGrowth documents a deliberate exception.
//
//oms:hotpath
func hotAllowedGrowth(dst []int16, v int16) []int16 {
	return append(dst, v) //oms:allow(hotalloc) amortized growth measured at <1 alloc per 10k calls
}

// hotAssembly is an assembly-backed hot-path declaration (the shape of
// hdc's AVX-512 kernel): no body to walk, nothing to report.
//
//oms:hotpath
func hotAssembly(qw, packed []uint64, dst []int)
