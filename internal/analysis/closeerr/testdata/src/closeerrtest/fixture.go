// Package closeerrtest plants discarded teardown errors for the
// closeerr analyzer; the exempt shapes (defer, explicit discard,
// error-path cleanup, no error result) must stay silent.
package closeerrtest

import (
	"errors"
	"os"
)

type conn struct{}

func (conn) Close() error    { return nil }
func (conn) Shutdown() error { return nil }

// quiet's Close returns nothing — there is no error to discard.
type quiet struct{}

func (quiet) Close() {}

var errFixture = errors.New("fixture")

func discarded(f *os.File, c conn) {
	f.Close()    // want `error from Close is discarded`
	c.Shutdown() // want `error from Shutdown is discarded`
	f.Sync()     // want `error from Sync is discarded`
}

func deferred(f *os.File) {
	defer f.Close() // deferred cleanup is exempt
}

func explicit(c conn) {
	_ = c.Close() // explicit discard is exempt
}

func errorPath(f *os.File, fail bool) error {
	if fail {
		f.Close() // outranked by the propagated error below: exempt
		return errFixture
	}
	return f.Close()
}

func nilReturnStillCounts(f *os.File) error {
	f.Close() // want `error from Close is discarded`
	return nil
}

func noErrorResult(q quiet) {
	q.Close() // no error result: nothing to discard
}

func allowed(c conn) {
	c.Close() //oms:allow(closeerr) fixture: teardown of a doomed conn
}

func unknownDirective(c conn) {
	_ = c.Close() //oms:allow(nosuchcheck) typo // want `unknown analyzer "nosuchcheck" in //oms:allow directive`
}

// assemblyBacked has no body (the shape of hdc's AVX-512 kernel): there
// is no control flow to build and nothing to report.
func assemblyBacked(qw, packed []uint64, dst []int)
