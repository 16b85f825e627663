// Package fdr implements target–decoy false discovery rate filtering
// (§3.4), the standard acceptance criterion for spectral library
// search results: decoy library entries that win a search estimate the
// rate of spurious matches, and the PSM list is thresholded at a fixed
// FDR (1% throughout the paper's evaluation).
package fdr

import (
	"fmt"
	"sort"
)

// PSM is a peptide-spectrum match produced by any search backend.
type PSM struct {
	// QueryID identifies the query spectrum.
	QueryID string
	// Peptide is the matched library peptide sequence.
	Peptide string
	// Score is the search score (higher is better).
	Score float64
	// IsDecoy marks matches against decoy library entries.
	IsDecoy bool
	// MassShift is the observed precursor mass difference in Da
	// (nonzero shifts indicate candidate modifications).
	MassShift float64
}

// Result is the outcome of FDR filtering.
type Result struct {
	// Accepted are the PSMs surviving the threshold, best first,
	// decoys removed.
	Accepted []PSM
	// Threshold is the score cut applied.
	Threshold float64
	// TargetCount and DecoyCount tally PSMs at or above the threshold
	// before decoy removal.
	TargetCount, DecoyCount int
}

// Filter applies target-decoy FDR control at level alpha (e.g. 0.01):
// PSMs are sorted by descending score and the deepest score threshold
// whose acceptance set {score >= threshold} has estimated FDR
// (#decoys/#targets) at or below alpha is selected. Acceptance never
// splits a run of equal-score PSMs — a cut inside a tie run would
// accept and reject the same score — so Result.Threshold exactly
// describes the accepted set: every PSM scoring at or above it was
// counted, every PSM below it was rejected. Decoy PSMs are excluded
// from the returned acceptances. The input slice is not modified.
func Filter(psms []PSM, alpha float64) (Result, error) {
	if alpha <= 0 || alpha >= 1 {
		return Result{}, fmt.Errorf("fdr: alpha %v outside (0,1)", alpha)
	}
	sorted := make([]PSM, len(psms))
	copy(sorted, psms)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })

	// Walk down the ranked list tracking the running decoy/target
	// ratio; remember the deepest tie-run boundary satisfying the
	// bound (evaluating only at run ends extends acceptance through
	// ties at the threshold score).
	var targets, decoys int
	bestIdx := -1
	bestTargets, bestDecoys := 0, 0
	for i, p := range sorted {
		if p.IsDecoy {
			decoys++
		} else {
			targets++
		}
		if i+1 < len(sorted) && sorted[i+1].Score == p.Score {
			continue // mid-run: not a valid score cut
		}
		if targets == 0 {
			continue
		}
		if float64(decoys)/float64(targets) <= alpha {
			bestIdx = i
			bestTargets, bestDecoys = targets, decoys
		}
	}
	res := Result{TargetCount: bestTargets, DecoyCount: bestDecoys}
	if bestIdx < 0 {
		return res, nil
	}
	res.Threshold = sorted[bestIdx].Score
	for _, p := range sorted[:bestIdx+1] {
		if !p.IsDecoy {
			res.Accepted = append(res.Accepted, p)
		}
	}
	return res, nil
}

// UniquePeptides returns the distinct peptide keys among accepted
// PSMs, a common reporting unit ("identified peptides", Fig. 10).
func UniquePeptides(psms []PSM) map[string]bool {
	set := make(map[string]bool, len(psms))
	for _, p := range psms {
		set[p.Peptide] = true
	}
	return set
}
