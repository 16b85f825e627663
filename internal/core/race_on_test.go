//go:build race

package core

// raceEnabled gates the allocation-count tests: the race detector's
// instrumentation allocates, so counts are only meaningful without it.
const raceEnabled = true
