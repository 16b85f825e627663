// Command omsvet runs the repo's invariant analyzer as a go vet tool
// (DESIGN.md §9):
//
//	closeerr    Close/Shutdown/Sync/Munmap errors must not be silently
//	            discarded outside deferred cleanup and error paths
//
// The index mapping's own rules — no write through a view, no read
// after Close — are enforced at run time: the mapping is
// read-only, and in test binaries Close leaves the range reserved so a
// stale view faults.
//
// Usage (the go command supplies export data and caching):
//
//	go build -o bin/omsvet ./cmd/omsvet
//	go vet -vettool=$PWD/bin/omsvet ./...
//
// A finding is suppressed — visibly, auditable by grep — with an
// end-of-line directive naming the analyzer and a justification:
//
//	c.Close() //oms:allow(closeerr) teardown of a doomed conn
//
// The directive covers its own line and the next; an unknown analyzer
// name in a directive (a deleted analyzer's included) is itself a
// finding. Exit status: 0 clean, nonzero on findings or load errors.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/closeerr"
)

var analyzers = []*analysis.Analyzer{closeerr.Analyzer}

func main() {
	switch {
	// The go vet protocol probes the tool identity first (the response
	// keys vet's result cache, so it must change when the binary does),
	// then asks for the tool's registered flags.
	case len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V"):
		fmt.Printf("omsvet version %s\n", selfHash())
	case len(os.Args) == 2 && os.Args[1] == "-flags":
		fmt.Println("[]")
	// A single *.cfg argument is a unitchecker invocation from go vet.
	case len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg"):
		os.Exit(analysis.RunUnitchecker(os.Args[1], analyzers, os.Stderr))
	default:
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$PWD/bin/omsvet ./...")
		os.Exit(2)
	}
}

// selfHash digests the tool's own binary, giving go vet a version
// string that tracks every rebuild.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}
