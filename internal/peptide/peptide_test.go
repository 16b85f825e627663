package peptide

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestAlphabetHas20(t *testing.T) {
	a := Alphabet()
	if len(a) != 20 {
		t.Fatalf("alphabet size = %d, want 20", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			t.Fatalf("alphabet not sorted at %d", i)
		}
	}
}

func TestResidueMass(t *testing.T) {
	// A one-residue peptide weighs its residue plus one water.
	p, err := New("G")
	if err != nil {
		t.Fatal(err)
	}
	if m := p.Mass() - units.WaterMass; math.Abs(m-57.02146) > 1e-6 {
		t.Errorf("G mass = %v", m)
	}
	if _, err := New("X"); err == nil {
		t.Error("expected error for unknown residue X")
	}
	if _, err := New("B"); err == nil {
		t.Error("expected error for unknown residue B")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(""); err == nil {
		t.Error("empty sequence should fail")
	}
	if _, err := New("PEPTXDE"); err == nil {
		t.Error("X residue should fail")
	}
	p, err := New("peptide")
	if err != nil {
		t.Fatal(err)
	}
	if p.Sequence != "PEPTIDE" {
		t.Errorf("lowercase not normalized: %q", p.Sequence)
	}
}

func TestKnownPeptideMass(t *testing.T) {
	// PEPTIDE monoisotopic mass is a textbook value: 799.3600 Da.
	p := Peptide{Sequence: "PEPTIDE"}
	if got := p.Mass(); math.Abs(got-799.3600) > 0.001 {
		t.Errorf("PEPTIDE mass = %v, want ~799.36", got)
	}
}

func TestModMassShiftsPrecursor(t *testing.T) {
	p := Peptide{Sequence: "PEPTIDEK"}
	m0 := p.Mass()
	mod := Modification{Name: "Phospho", DeltaMass: 79.966331, Position: 3}
	pm := p.WithMod(mod)
	if got := pm.Mass() - m0; math.Abs(got-79.966331) > 1e-9 {
		t.Errorf("mod mass shift = %v, want 79.966331", got)
	}
	if len(pm.Mods) != 1 || len(p.Mods) != 0 {
		t.Error("WithMod must add the modification to the copy only")
	}
	if pm.Sequence != p.Sequence {
		t.Error("WithMod must keep the sequence")
	}
}

func TestWithModDoesNotMutateOriginal(t *testing.T) {
	p := Peptide{Sequence: "ACDK"}
	_ = p.WithMod(CommonModifications[0])
	if len(p.Mods) != 0 {
		t.Error("WithMod mutated the receiver")
	}
}

func TestMZMatchesUnits(t *testing.T) {
	p := Peptide{Sequence: "LVKK"}
	for z := 1; z <= 3; z++ {
		want := units.NeutralMassToMZ(p.Mass(), z)
		if got := p.MZ(z); math.Abs(got-want) > 1e-12 {
			t.Errorf("MZ(%d) = %v, want %v", z, got, want)
		}
	}
}

func TestStringAnnotations(t *testing.T) {
	p := Peptide{Sequence: "ACK"}
	if p.String() != "ACK" {
		t.Errorf("unmodified String = %q", p.String())
	}
	pm := p.WithMod(Modification{Name: "Acetyl", DeltaMass: 42.010565, Position: 0})
	if got := pm.String(); got != "ACK[Acetyl@0]" {
		t.Errorf("modified String = %q", got)
	}
}

func TestFragmentsCountAndComplementarity(t *testing.T) {
	p := Peptide{Sequence: "PEPTIDEK"}
	frags := p.Fragments(1)
	n := p.Len()
	if len(frags) != 2*(n-1) {
		t.Fatalf("fragment count = %d, want %d", len(frags), 2*(n-1))
	}
	// b_i + y_(n-i) neutral masses must sum to precursor + 2 protons
	// (each singly-charged m/z carries one proton).
	total := p.Mass()
	byIndex := map[[2]int]float64{}
	for _, f := range frags {
		byIndex[[2]int{int(f.Kind), f.Index}] = f.MZ
	}
	for i := 1; i < n; i++ {
		b := byIndex[[2]int{int(BIon), i}]
		y := byIndex[[2]int{int(YIon), n - i}]
		sum := (b - units.ProtonMass) + (y - units.ProtonMass)
		if math.Abs(sum-total) > 1e-6 {
			t.Errorf("b%d + y%d = %v, want %v", i, n-i, sum, total)
		}
	}
}

func TestFragmentsMaxCharge(t *testing.T) {
	p := Peptide{Sequence: "PEPTIDEK"}
	frags := p.Fragments(2)
	if len(frags) != 2*(p.Len()-1)*2 {
		t.Fatalf("fragment count with z<=2 = %d", len(frags))
	}
	sawZ2 := false
	for _, f := range frags {
		if f.Charge == 2 {
			sawZ2 = true
		}
	}
	if !sawZ2 {
		t.Error("no charge-2 fragments generated")
	}
}

func TestFragmentsShortPeptide(t *testing.T) {
	p := Peptide{Sequence: "GK"}
	if frags := p.Fragments(1); len(frags) != 2 {
		t.Errorf("GK fragments = %d, want 2", len(frags))
	}
	single := Peptide{Sequence: "G"}
	if frags := single.Fragments(1); frags != nil {
		t.Errorf("single residue should have no fragments")
	}
}

func TestLocalizedModShiftsCorrectFragments(t *testing.T) {
	p := Peptide{Sequence: "AAAAK"}
	mod := Modification{Name: "Phospho", DeltaMass: 80.0, Position: 1}
	pm := p.WithMod(mod)
	base := map[[2]int]float64{}
	for _, f := range p.Fragments(1) {
		base[[2]int{int(f.Kind), f.Index}] = f.MZ
	}
	for _, f := range pm.Fragments(1) {
		b := base[[2]int{int(f.Kind), f.Index}]
		shifted := math.Abs(f.MZ-b-80.0) < 1e-6
		unshifted := math.Abs(f.MZ-b) < 1e-6
		containsMod := (f.Kind == BIon && f.Index >= 2) ||
			(f.Kind == YIon && f.Index >= 4)
		if containsMod && !shifted {
			t.Errorf("%v ion %d should be shifted (mz=%v base=%v)", f.Kind, f.Index, f.MZ, b)
		}
		if !containsMod && !unshifted {
			t.Errorf("%v ion %d should be unshifted (mz=%v base=%v)", f.Kind, f.Index, f.MZ, b)
		}
	}
}

func TestUnlocalizedModShiftsOnlyYSeries(t *testing.T) {
	p := Peptide{Sequence: "AAAAK"}
	pm := p.WithMod(Modification{Name: "Open", DeltaMass: 50, Position: -1})
	base := map[[2]int]float64{}
	for _, f := range p.Fragments(1) {
		base[[2]int{int(f.Kind), f.Index}] = f.MZ
	}
	for _, f := range pm.Fragments(1) {
		b := base[[2]int{int(f.Kind), f.Index}]
		if f.Kind == BIon && math.Abs(f.MZ-b) > 1e-9 {
			t.Errorf("b%d shifted by unlocalized mod", f.Index)
		}
		if f.Kind == YIon && math.Abs(f.MZ-b-50) > 1e-9 {
			t.Errorf("y%d not shifted by unlocalized mod", f.Index)
		}
	}
}

func TestRandomPeptideTryptic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		p := Random(rng, 7+rng.Intn(20))
		last := p.Sequence[len(p.Sequence)-1]
		if last != 'K' && last != 'R' {
			t.Fatalf("random peptide %q does not end in K/R", p.Sequence)
		}
		if _, err := New(p.Sequence); err != nil {
			t.Fatalf("random peptide invalid: %v", err)
		}
	}
}

func TestRandomPeptideMinLength(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := Random(rng, 0)
	if p.Len() != 2 {
		t.Errorf("length clamp failed: %d", p.Len())
	}
}

func TestDigestCleavageRules(t *testing.T) {
	// Cleave after K and R, but not before P.
	peps := Digest("AAAKBBBRPCCCKDDD", 2, 50)
	var seqs []string
	for _, p := range peps {
		seqs = append(seqs, p.Sequence)
	}
	// B is invalid and gets dropped; cleaned protein is AAAKRPCCCKDDD.
	// Cut after K(3) (next is R), not after R (next is P), after K(9).
	want := []string{"AAAK", "RPCCCK", "DDD"}
	if strings.Join(seqs, " ") != strings.Join(want, " ") {
		t.Errorf("digest = %v, want %v", seqs, want)
	}
}

func TestDigestLengthFilter(t *testing.T) {
	peps := Digest("AKAAAAAAAK", 5, 50)
	if len(peps) != 1 || peps[0].Sequence != "AAAAAAAK" {
		t.Errorf("digest with min length = %v", peps)
	}
}

func TestDecoyPseudoReverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := Peptide{Sequence: "ACDEFGK"} // ACDEFGK
	d := Decoy(p, rng)
	if d.Sequence[len(d.Sequence)-1] != 'K' {
		t.Error("decoy must keep C-terminal residue")
	}
	if d.Sequence == p.Sequence {
		t.Error("decoy equals target")
	}
	if math.Abs(d.Mass()-p.Mass()) > 1e-9 {
		t.Error("decoy mass must equal target mass")
	}
}

func TestDecoyPalindromeShuffled(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := Peptide{Sequence: "AAAK"} // reversal of prefix is identical
	d := Decoy(p, rng)
	// Shuffling AAA cannot change it; the 16-try loop gives up. The
	// contract is only "mass preserved, terminus preserved".
	if math.Abs(d.Mass()-p.Mass()) > 1e-9 {
		t.Error("decoy mass changed")
	}
	p2 := Peptide{Sequence: "AGAK"}
	d2 := Decoy(p2, rng)
	if d2.Sequence[3] != 'K' {
		t.Error("terminus moved")
	}
}

func TestDecoyMassInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64, length uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := Random(r, int(length%20)+5)
		d := Decoy(p, rng)
		return math.Abs(d.Mass()-p.Mass()) < 1e-9 &&
			d.Len() == p.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFragmentComplementarityProperty(t *testing.T) {
	f := func(seed int64, length uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := Random(r, int(length%25)+4)
		total := p.Mass()
		by := map[[2]int]float64{}
		for _, fr := range p.Fragments(1) {
			by[[2]int{int(fr.Kind), fr.Index}] = fr.MZ
		}
		n := p.Len()
		for i := 1; i < n; i++ {
			b := by[[2]int{int(BIon), i}]
			y := by[[2]int{int(YIon), n - i}]
			if math.Abs((b-units.ProtonMass)+(y-units.ProtonMass)-total) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
