//go:build race

package main

// raceEnabled gates the allocation-count tests: the race detector's
// instrumentation allocates, and sync.Pool drops items under it.
const raceEnabled = true
