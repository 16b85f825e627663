package fdr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFilterAlphaValidation(t *testing.T) {
	for _, a := range []float64{0, 1, -0.5, 2} {
		if _, err := Filter(nil, a); err == nil {
			t.Errorf("alpha %v accepted", a)
		}
	}
}

func TestFilterBasicThreshold(t *testing.T) {
	psms := []PSM{
		{QueryID: "q1", Peptide: "A", Score: 100},
		{QueryID: "q2", Peptide: "B", Score: 90},
		{QueryID: "q3", Peptide: "C", Score: 80},
		{QueryID: "q4", Peptide: "D", Score: 70, IsDecoy: true},
		{QueryID: "q5", Peptide: "E", Score: 60},
		{QueryID: "q6", Peptide: "F", Score: 50, IsDecoy: true},
	}
	res, err := Filter(psms, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Prefix FDRs: 0/1, 0/2, 0/3, 1/3=0.33, 1/4=0.25, 2/4=0.5.
	// Deepest prefix with FDR <= 0.25 ends at q5.
	if len(res.Accepted) != 4 {
		t.Fatalf("accepted = %d, want 4 targets", len(res.Accepted))
	}
	if res.Threshold != 60 {
		t.Errorf("threshold = %v, want 60", res.Threshold)
	}
	if res.TargetCount != 4 || res.DecoyCount != 1 {
		t.Errorf("counts: %d targets, %d decoys", res.TargetCount, res.DecoyCount)
	}
	for _, p := range res.Accepted {
		if p.IsDecoy {
			t.Error("decoy in accepted list")
		}
	}
}

// TestFilterNeverSplitsTieRuns is the regression for the cutoff tie
// bug: the accepted prefix used to end mid-run, so Threshold ("the
// score cut applied") named a score that was simultaneously accepted
// (targets above the cut) and rejected (a decoy at the same score).
func TestFilterNeverSplitsTieRuns(t *testing.T) {
	// A target and a decoy tie at score 9; accepting {100, 9T} while
	// rejecting 9D splits the run. With the run as a whole the FDR is
	// 1/2 > 0.4, so acceptance must retreat to the run above.
	psms := []PSM{
		{QueryID: "q1", Peptide: "A", Score: 100},
		{QueryID: "q2", Peptide: "B", Score: 9},
		{QueryID: "q3", Peptide: "C", Score: 9, IsDecoy: true},
		{QueryID: "q4", Peptide: "D", Score: 8, IsDecoy: true},
	}
	res, err := Filter(psms, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 1 || res.Accepted[0].QueryID != "q1" {
		t.Errorf("accepted = %+v, want only q1", res.Accepted)
	}
	if res.Threshold != 100 {
		t.Errorf("threshold = %v, want 100", res.Threshold)
	}
	if res.TargetCount != 1 || res.DecoyCount != 0 {
		t.Errorf("counts: %d targets, %d decoys", res.TargetCount, res.DecoyCount)
	}

	// Same shape but a tolerant alpha: acceptance extends through the
	// whole tie run, decoy counted, and the threshold names the run.
	res, err = Filter(psms, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 2 {
		t.Fatalf("accepted = %+v, want q1 and q2", res.Accepted)
	}
	if res.Threshold != 9 {
		t.Errorf("threshold = %v, want 9", res.Threshold)
	}
	if res.TargetCount != 2 || res.DecoyCount != 1 {
		t.Errorf("counts: %d targets, %d decoys", res.TargetCount, res.DecoyCount)
	}
}

// TestFilterThresholdDescribesAcceptedSet fuzzes tie-heavy inputs
// (scores drawn from a handful of values) and checks the threshold
// contract: the accepted targets are exactly the targets scoring at
// or above Threshold, the counts tally every PSM at or above it, and
// the estimated FDR of that set respects alpha.
func TestFilterThresholdDescribesAcceptedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		psms := make([]PSM, n)
		for i := range psms {
			psms[i] = PSM{
				QueryID: "q",
				Score:   float64(rng.Intn(6)), // heavy ties
				IsDecoy: rng.Float64() < 0.3,
			}
		}
		alpha := 0.05 + rng.Float64()*0.4
		res, err := Filter(psms, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Accepted) == 0 {
			continue
		}
		var targets, decoys int
		for _, p := range psms {
			if p.Score >= res.Threshold {
				if p.IsDecoy {
					decoys++
				} else {
					targets++
				}
			}
		}
		if targets != res.TargetCount || decoys != res.DecoyCount {
			t.Fatalf("trial %d: counts at threshold %v: got %d/%d, result says %d/%d",
				trial, res.Threshold, targets, decoys, res.TargetCount, res.DecoyCount)
		}
		if len(res.Accepted) != targets {
			t.Fatalf("trial %d: %d accepted, %d targets at threshold", trial, len(res.Accepted), targets)
		}
		for _, p := range res.Accepted {
			if p.Score < res.Threshold {
				t.Fatalf("trial %d: accepted score %v below threshold %v", trial, p.Score, res.Threshold)
			}
		}
		if float64(decoys)/float64(targets) > alpha {
			t.Fatalf("trial %d: FDR %v over alpha %v", trial, float64(decoys)/float64(targets), alpha)
		}
	}
}

func TestFilterNothingPasses(t *testing.T) {
	psms := []PSM{
		{QueryID: "q1", Score: 100, IsDecoy: true},
		{QueryID: "q2", Score: 90},
	}
	res, err := Filter(psms, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 0 {
		t.Errorf("accepted = %d, want 0", len(res.Accepted))
	}
}

func TestFilterEmptyInput(t *testing.T) {
	res, err := Filter(nil, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 0 || res.TargetCount != 0 {
		t.Errorf("empty input result: %+v", res)
	}
}

func TestFilterDoesNotMutateInput(t *testing.T) {
	psms := []PSM{{Score: 1}, {Score: 3}, {Score: 2}}
	if _, err := Filter(psms, 0.5); err != nil {
		t.Fatal(err)
	}
	if psms[0].Score != 1 || psms[1].Score != 3 || psms[2].Score != 2 {
		t.Error("Filter reordered caller slice")
	}
}

func TestFilterAllTargets(t *testing.T) {
	psms := make([]PSM, 50)
	for i := range psms {
		psms[i] = PSM{QueryID: "q", Peptide: "P", Score: float64(i)}
	}
	res, err := Filter(psms, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 50 {
		t.Errorf("all-target acceptance = %d", len(res.Accepted))
	}
}

// TestQValuesMonotoneInRank checks the q-value contract on Filter: a
// PSM's q-value is the least alpha at which Filter accepts it, so
// q-values rise with rank exactly when the acceptances at growing alpha
// are nested: a threshold never rises and no accepted PSM drops out.
func TestQValuesMonotoneInRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	psms := make([]PSM, 200)
	for i := range psms {
		psms[i] = PSM{Score: rng.Float64() * 100, IsDecoy: rng.Float64() < 0.3}
	}
	prev := Result{Threshold: math.Inf(1)}
	for _, alpha := range []float64{0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.99} {
		res, err := Filter(psms, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Accepted) > 0 && res.Threshold > prev.Threshold || len(res.Accepted) < len(prev.Accepted) {
			t.Fatalf("alpha %v: threshold %v, %d accepted after threshold %v, %d accepted",
				alpha, res.Threshold, len(res.Accepted), prev.Threshold, len(prev.Accepted))
		}
		prev = res
	}
}

func TestQValuesPerfectSeparation(t *testing.T) {
	// All targets above all decoys: every target has q = 0, so even a
	// strict alpha accepts all of them and no decoy.
	var psms []PSM
	for i := 0; i < 50; i++ {
		psms = append(psms, PSM{Score: 100 + float64(i)})
	}
	for i := 0; i < 50; i++ {
		psms = append(psms, PSM{Score: float64(i), IsDecoy: true})
	}
	res, err := Filter(psms, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 50 || res.DecoyCount != 0 || res.Threshold != 100 {
		t.Errorf("well-separated targets: %d accepted, %d decoys, threshold %v", len(res.Accepted), res.DecoyCount, res.Threshold)
	}
}

// TestFilterConsistentWithQValues checks Filter against q-values
// computed by brute force: a target's q-value is the least decoy/target
// ratio over the score cuts that accept it, a cut falling only between
// different scores, and Filter accepts exactly the targets whose
// q-value is at most alpha.
func TestFilterConsistentWithQValues(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		psms := make([]PSM, n)
		for i := range psms {
			psms[i] = PSM{Score: rng.NormFloat64()*10 + float64(i%7), IsDecoy: rng.Float64() < 0.4}
		}
		alpha := 0.05 + rng.Float64()*0.3
		res, err := Filter(psms, alpha)
		if err != nil {
			return false
		}
		want := 0
		for _, p := range psms {
			if p.IsDecoy {
				continue
			}
			q := math.Inf(1)
			for _, cut := range psms {
				if cut.Score > p.Score {
					continue
				}
				var targets, decoys int
				for _, o := range psms {
					if o.Score >= cut.Score && o.IsDecoy {
						decoys++
					} else if o.Score >= cut.Score {
						targets++
					}
				}
				q = min(q, float64(decoys)/float64(targets))
			}
			if q <= alpha {
				want++
			}
		}
		return len(res.Accepted) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUniquePeptides(t *testing.T) {
	set := UniquePeptides([]PSM{
		{Peptide: "A"}, {Peptide: "B"}, {Peptide: "A"},
	})
	if len(set) != 2 || !set["A"] || !set["B"] {
		t.Errorf("unique peptides: %v", set)
	}
}

// TestCountIdentifications checks that the "total # of identifications"
// of Figs. 11 and 13, the length of Accepted, is the tally of targets at
// or above the threshold.
func TestCountIdentifications(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	psms := make([]PSM, 300)
	for i := range psms {
		// Targets outscore decoys on average, and scores tie often.
		decoy := rng.Float64() < 0.3
		psms[i] = PSM{Score: float64(rng.Intn(60)), IsDecoy: decoy}
		if !decoy {
			psms[i].Score += 30
		}
	}
	res, err := Filter(psms, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) == 0 || len(res.Accepted) != res.TargetCount {
		t.Errorf("%d identifications, %d targets counted", len(res.Accepted), res.TargetCount)
	}
}
