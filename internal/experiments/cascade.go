package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/hdc"
	"repro/internal/msdata"
)

// CascadeRow is one operating point of the recall-vs-shortlist sweep:
// the cascade search with a fixed per-query completion budget,
// compared against the exact single-tier engine on the same workload.
type CascadeRow struct {
	// Shortlist is the per-query completion budget (0 = the exact
	// pruning bound, the bit-identical reference point).
	Shortlist int
	// Recall is the fraction of the exact engine's matched queries
	// whose top-1 PSM (peptide and score) the cascade reproduces.
	Recall float64
	// CompletedFrac is the fraction of prefiltered rows whose
	// completion tier was scored — the work the cascade could not (or,
	// under a shortlist, chose not to) prune.
	CompletedFrac float64
}

// CascadeSweep measures the HyperOMS/ANN-SoLo-style recall/speed
// trade of the two-tier cascade: top-1 recall against the exact
// engine as the shortlist budget grows, alongside the measured
// completion fraction. Row 0 is exact mode, whose recall is 1 by
// construction (the pruning bound is lossless).
func CascadeSweep(opts Options) ([]CascadeRow, error) {
	ds, err := msdata.Generate(msdata.IPRG2012(opts.Scale))
	if err != nil {
		return nil, err
	}
	p := core.DefaultParams()
	p.Accel.D = engineDimension(opts)
	p.Accel.NumChunks = p.Accel.D / 32
	p.Accel.Seed = opts.Seed + 23
	exact, _, err := core.BuildExact(p, ds.Library)
	if err != nil {
		return nil, err
	}
	wantPSMs, err := exact.SearchAll(ds.Queries)
	if err != nil {
		return nil, err
	}
	want := make(map[string]struct {
		peptide string
		score   float64
	}, len(wantPSMs))
	for _, psm := range wantPSMs {
		want[psm.QueryID] = struct {
			peptide string
			score   float64
		}{psm.Peptide, psm.Score}
	}

	prefilter := max(1, hdc.WordsPerHV(p.Accel.D)/8) // 1/8 of the words prefiltered
	shortlists := []int{0, 1, 2, 4, 8, 16, 32, 64}
	rows := make([]CascadeRow, 0, len(shortlists))
	for _, m := range shortlists {
		cp := p
		cp.Tiers = []int{prefilter}
		cp.ShortlistPerQuery = m
		engine, _, err := core.BuildExact(cp, ds.Library)
		if err != nil {
			return nil, err
		}
		psms, err := engine.SearchAll(ds.Queries)
		if err != nil {
			return nil, err
		}
		agree := 0
		for _, psm := range psms {
			if w, ok := want[psm.QueryID]; ok && w.peptide == psm.Peptide && w.score == psm.Score {
				agree++
			}
		}
		row := CascadeRow{Shortlist: m}
		if len(want) > 0 {
			row.Recall = float64(agree) / float64(len(want))
		}
		if cs, ok := engine.CascadeStats(); ok && cs.Prefiltered() > 0 {
			row.CompletedFrac = float64(cs.Completed()) / float64(cs.Prefiltered())
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// LadderRow is one (ladder, bit layout) operating point of the K-tier
// cascade sweep: the measured per-tier pruning of the ladder alongside
// whether its PSMs are identical to the single-tier natural-layout
// reference (they must be — the pruning bound and the layout
// permutation are both lossless).
type LadderRow struct {
	// Tiers is the configured ladder prefix (nil = single-tier scan;
	// the kernel appends the remainder tier).
	Tiers []int
	// Layout is the bit layout the library was packed under
	// (core.BitLayoutNatural or core.BitLayoutEntropy).
	Layout string
	// TierRows[t] is the number of rows admitted to tier t.
	TierRows []uint64
	// TierPruneRates[t] is the fraction of tier-t rows pruned before
	// tier t+1 (empty for the single-tier point).
	TierPruneRates []float64
	// PruneRate is the overall fraction of tier-0 rows never completed.
	PruneRate float64
	// Exact reports whether the full PSM set matches the reference
	// engine PSM-for-PSM.
	Exact bool
}

// ladderFamily returns the K∈{1,2,3,4} ladder prefixes the sweep runs
// over a row of `words` packed words: the single-tier scan, the
// classic 1/8-prefix two-tier split, and three/four-tier ladders that
// sharpen the leading tiers.
func ladderFamily(words int) [][]int {
	eighth := max(1, words/8)
	quarter := max(1, words/4)
	return [][]int{
		nil,
		{eighth},
		{eighth, quarter},
		{1, eighth, quarter},
	}
}

// LadderSweep measures the K-tier cascade ladder across depth and bit
// layout on one workload: every (ladder, layout) point must reproduce
// the reference PSMs exactly, while the per-tier prune rates show
// where each ladder spends (and saves) its word budget. This is the
// CI cascade-sweep step's engine (omsrepro -only cascade-sweep).
func LadderSweep(opts Options) ([]LadderRow, error) {
	ds, err := msdata.Generate(msdata.IPRG2012(opts.Scale))
	if err != nil {
		return nil, err
	}
	p := core.DefaultParams()
	p.Accel.D = engineDimension(opts)
	p.Accel.NumChunks = p.Accel.D / 32
	p.Accel.Seed = opts.Seed + 29
	// The cascade bound is the running k-th-best completed distance, so
	// k=1 gives the tightest bound the ladder can prune against — and
	// top-1 is all the PSM path consumes, so exactness is unaffected.
	p.TopK = 1
	exact, _, err := core.BuildExact(p, ds.Library)
	if err != nil {
		return nil, err
	}
	wantPSMs, err := exact.SearchAll(ds.Queries)
	if err != nil {
		return nil, err
	}

	words := hdc.WordsPerHV(p.Accel.D)
	var rows []LadderRow
	for _, tiers := range ladderFamily(words) {
		for _, layout := range []string{core.BitLayoutNatural, core.BitLayoutEntropy} {
			cp := p
			cp.Tiers = tiers
			cp.BitLayout = layout
			engine, _, err := core.BuildExact(cp, ds.Library)
			if err != nil {
				return nil, err
			}
			psms, err := engine.SearchAll(ds.Queries)
			if err != nil {
				return nil, err
			}
			row := LadderRow{Tiers: tiers, Layout: layout, Exact: len(psms) == len(wantPSMs)}
			for i := range psms {
				if !row.Exact {
					break
				}
				row.Exact = psms[i] == wantPSMs[i]
			}
			if cs, ok := engine.CascadeStats(); ok {
				row.TierRows = append([]uint64(nil), cs.TierRows...)
				row.PruneRate = cs.PruneRate()
				for t := 0; t+1 < cs.NumTiers(); t++ {
					row.TierPruneRates = append(row.TierPruneRates, cs.TierPruneRate(t))
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderLadderSweep formats the K-tier sweep as a text table, one line
// per (ladder, layout) point with the per-tier prune rates inline.
func RenderLadderSweep(rows []LadderRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "K-tier cascade ladder sweep (exactness + per-tier prune rates, natural vs entropy layout)")
	fmt.Fprintln(&b, "tiers\tlayout\texact\tpruned\tper-tier")
	for _, r := range rows {
		label := "single"
		if len(r.Tiers) > 0 {
			label = core.FormatTiers(r.Tiers) + ",rest"
		}
		perTier := "-"
		if len(r.TierPruneRates) > 0 {
			parts := make([]string, len(r.TierPruneRates))
			for t, rate := range r.TierPruneRates {
				parts[t] = fmt.Sprintf("t%d:%.1f%%", t, 100*rate)
			}
			perTier = strings.Join(parts, " ")
		}
		fmt.Fprintf(&b, "%s\t%s\t%t\t%.1f%%\t%s\n", label, r.Layout, r.Exact, 100*r.PruneRate, perTier)
	}
	return b.String()
}

// RenderCascadeSweep formats the sweep as a text table.
func RenderCascadeSweep(rows []CascadeRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Cascade recall vs shortlist (top-1 vs exact engine)")
	fmt.Fprintln(&b, "shortlist\trecall\tcompleted")
	for _, r := range rows {
		label := fmt.Sprintf("%d", r.Shortlist)
		if r.Shortlist == 0 {
			label = "exact"
		}
		fmt.Fprintf(&b, "%s\t%.3f\t%.4f\n", label, r.Recall, r.CompletedFrac)
	}
	return b.String()
}
