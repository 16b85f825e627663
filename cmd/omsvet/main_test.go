package main

import (
	"slices"
	"testing"

	"repro/internal/analysis"
)

// TestShippedAnalyzers pins what go vet runs and the registry the tool
// links: the names a //oms:allow directive may carry. A directive
// naming any other analyzer — a deleted one such as mmapwrite or
// unmaplife included — is itself a finding.
func TestShippedAnalyzers(t *testing.T) {
	want := []string{"closeerr"}
	var run []string
	for _, a := range analyzers {
		run = append(run, a.Name)
	}
	if !slices.Equal(run, want) {
		t.Errorf("analyzers run = %v, want %v", run, want)
	}
	if got := analysis.KnownNames(); !slices.Equal(got, want) {
		t.Errorf("registered analyzers = %v, want %v", got, want)
	}
}
