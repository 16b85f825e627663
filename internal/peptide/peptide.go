// Package peptide models peptides for mass-spectrometry simulation:
// amino-acid monoisotopic masses, post-translational modifications,
// tryptic digestion, b/y fragment-ion generation and decoy construction.
//
// It is the substrate the synthetic dataset generator (internal/msdata)
// builds on: reference libraries contain theoretical spectra of
// unmodified peptides, while query spectra may carry PTM mass shifts,
// which is exactly the mismatch open modification search resolves.
package peptide

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/units"
)

// residueMass maps the 20 proteinogenic amino acids to their
// monoisotopic residue masses in Da.
var residueMass = map[byte]float64{
	'G': 57.02146, 'A': 71.03711, 'S': 87.03203, 'P': 97.05276,
	'V': 99.06841, 'T': 101.04768, 'C': 103.00919, 'L': 113.08406,
	'I': 113.08406, 'N': 114.04293, 'D': 115.02694, 'Q': 128.05858,
	'K': 128.09496, 'E': 129.04259, 'M': 131.04049, 'H': 137.05891,
	'F': 147.06841, 'R': 156.10111, 'Y': 163.06333, 'W': 186.07931,
}

// Alphabet returns the amino-acid single-letter codes in sorted order.
func Alphabet() []byte {
	out := make([]byte, 0, len(residueMass))
	for aa := range residueMass {
		out = append(out, aa)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Modification is a named post-translational modification applied at a
// specific residue position of a peptide.
type Modification struct {
	// Name identifies the modification, e.g. "Phospho".
	Name string
	// DeltaMass is the monoisotopic mass shift in Da.
	DeltaMass float64
	// Position is the zero-based residue index carrying the
	// modification, or -1 for a terminal/unlocalized modification.
	Position int
}

// CommonModifications is a catalogue of frequent PTMs, used by the
// synthetic workload generator to produce realistic open-search queries.
var CommonModifications = []Modification{
	{Name: "Oxidation", DeltaMass: 15.994915, Position: -1},
	{Name: "Phospho", DeltaMass: 79.966331, Position: -1},
	{Name: "Acetyl", DeltaMass: 42.010565, Position: -1},
	{Name: "Methyl", DeltaMass: 14.015650, Position: -1},
	{Name: "Dimethyl", DeltaMass: 28.031300, Position: -1},
	{Name: "Trimethyl", DeltaMass: 42.046950, Position: -1},
	{Name: "Carbamidomethyl", DeltaMass: 57.021464, Position: -1},
	{Name: "Deamidation", DeltaMass: 0.984016, Position: -1},
	{Name: "Formyl", DeltaMass: 27.994915, Position: -1},
	{Name: "GlyGly", DeltaMass: 114.042927, Position: -1},
	{Name: "Succinyl", DeltaMass: 100.016044, Position: -1},
	{Name: "Nitro", DeltaMass: 44.985078, Position: -1},
}

// Peptide is an amino-acid sequence with optional modifications.
type Peptide struct {
	// Sequence is the upper-case single-letter residue string.
	Sequence string
	// Mods are the modifications applied to the peptide.
	Mods []Modification
}

// New validates the sequence and returns a Peptide.
func New(sequence string) (Peptide, error) {
	if sequence == "" {
		return Peptide{}, errors.New("peptide: empty sequence")
	}
	seq := strings.ToUpper(sequence)
	for i := 0; i < len(seq); i++ {
		if _, ok := residueMass[seq[i]]; !ok {
			return Peptide{}, fmt.Errorf("peptide: invalid residue %q at %d", string(seq[i]), i)
		}
	}
	return Peptide{Sequence: seq}, nil
}

// WithMod returns a copy of the peptide carrying an extra modification.
func (p Peptide) WithMod(m Modification) Peptide {
	mods := make([]Modification, len(p.Mods)+1)
	copy(mods, p.Mods)
	mods[len(p.Mods)] = m
	return Peptide{Sequence: p.Sequence, Mods: mods}
}

// Len returns the number of residues.
func (p Peptide) Len() int { return len(p.Sequence) }

// ModMass returns the summed mass shift of all modifications in Da.
func (p Peptide) ModMass() float64 {
	var m float64
	for _, mod := range p.Mods {
		m += mod.DeltaMass
	}
	return m
}

// Mass returns the neutral monoisotopic mass of the (modified) peptide.
func (p Peptide) Mass() float64 {
	m := units.WaterMass + p.ModMass()
	for i := 0; i < len(p.Sequence); i++ {
		m += residueMass[p.Sequence[i]]
	}
	return m
}

// MZ returns the precursor m/z observed at the given charge state.
func (p Peptide) MZ(charge int) float64 {
	return units.NeutralMassToMZ(p.Mass(), charge)
}

// String renders the peptide with modification annotations, e.g.
// "PEPTIDEK[Phospho@3]".
func (p Peptide) String() string {
	if len(p.Mods) == 0 {
		return p.Sequence
	}
	var sb strings.Builder
	sb.WriteString(p.Sequence)
	sb.WriteByte('[')
	for i, m := range p.Mods {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s@%d", m.Name, m.Position)
	}
	sb.WriteByte(']')
	return sb.String()
}

// FragmentKind distinguishes the fragment ion series.
type FragmentKind int

// Fragment ion series produced by collision-induced dissociation.
const (
	BIon FragmentKind = iota // N-terminal prefix ions
	YIon                     // C-terminal suffix ions
)

// Fragment is a single theoretical fragment ion.
type Fragment struct {
	// Kind is the ion series (b or y).
	Kind FragmentKind
	// Index is the 1-based cleavage index within the series.
	Index int
	// Charge is the fragment charge state.
	Charge int
	// MZ is the fragment's mass-to-charge ratio.
	MZ float64
}

// Fragments returns the theoretical b- and y-ion series of the peptide
// for fragment charges 1..maxCharge. Modifications located at residue
// positions shift all fragments containing that residue; unlocalized
// modifications (Position < 0) are treated as C-terminal and shift the
// y series and the precursor only.
func (p Peptide) Fragments(maxCharge int) []Fragment {
	if maxCharge < 1 {
		maxCharge = 1
	}
	n := len(p.Sequence)
	if n < 2 {
		return nil
	}
	// prefix[i] = summed residue mass of Sequence[:i] including
	// modifications localized in that prefix.
	prefix := make([]float64, n+1)
	for i := 0; i < n; i++ {
		prefix[i+1] = prefix[i] + residueMass[p.Sequence[i]]
	}
	modPrefix := make([]float64, n+1)
	var modTail float64 // unlocalized mods, assigned to the C terminus
	for _, m := range p.Mods {
		if m.Position >= 0 && m.Position < n {
			for i := m.Position + 1; i <= n; i++ {
				modPrefix[i] += m.DeltaMass
			}
		} else {
			modTail += m.DeltaMass
		}
	}
	total := prefix[n] + modPrefix[n] + modTail + units.WaterMass

	frags := make([]Fragment, 0, 2*(n-1)*maxCharge)
	for i := 1; i < n; i++ {
		bMass := prefix[i] + modPrefix[i] // b ion: prefix residues
		yMass := total - bMass            // y ion: complement incl. water
		for z := 1; z <= maxCharge; z++ {
			frags = append(frags,
				Fragment{Kind: BIon, Index: i, Charge: z, MZ: units.NeutralMassToMZ(bMass, z)},
				Fragment{Kind: YIon, Index: n - i, Charge: z, MZ: units.NeutralMassToMZ(yMass, z)},
			)
		}
	}
	return frags
}

// Random returns a random peptide of the given length drawn uniformly
// from the amino-acid alphabet, ending in K or R like a tryptic peptide.
func Random(rng *rand.Rand, length int) Peptide {
	if length < 2 {
		length = 2
	}
	alphabet := Alphabet()
	b := make([]byte, length)
	for i := 0; i < length-1; i++ {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	if rng.Intn(2) == 0 {
		b[length-1] = 'K'
	} else {
		b[length-1] = 'R'
	}
	return Peptide{Sequence: string(b)}
}

// Digest performs an in-silico tryptic digestion of a protein sequence:
// cleaving after K or R except before P, keeping peptides whose length
// lies within [minLen, maxLen]. Invalid residues in the protein are
// skipped.
func Digest(protein string, minLen, maxLen int) []Peptide {
	protein = strings.ToUpper(protein)
	var clean strings.Builder
	for i := 0; i < len(protein); i++ {
		if _, ok := residueMass[protein[i]]; ok {
			clean.WriteByte(protein[i])
		}
	}
	seq := clean.String()
	var peptides []Peptide
	start := 0
	for i := 0; i < len(seq); i++ {
		isCut := (seq[i] == 'K' || seq[i] == 'R') &&
			(i+1 >= len(seq) || seq[i+1] != 'P')
		if isCut || i == len(seq)-1 {
			frag := seq[start : i+1]
			if len(frag) >= minLen && len(frag) <= maxLen {
				peptides = append(peptides, Peptide{Sequence: frag})
			}
			start = i + 1
		}
	}
	return peptides
}

// Decoy generates a decoy peptide by reversing the sequence while
// keeping the C-terminal residue fixed (the standard "pseudo-reverse"
// construction used in target-decoy FDR estimation). Palindromic
// sequences are shuffled with rng instead so the decoy never equals
// the target.
func Decoy(p Peptide, rng *rand.Rand) Peptide {
	n := len(p.Sequence)
	if n < 2 {
		return p
	}
	b := []byte(p.Sequence)
	for i, j := 0, n-2; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	if string(b) == p.Sequence && rng != nil {
		for tries := 0; tries < 16 && string(b) == p.Sequence; tries++ {
			rng.Shuffle(n-1, func(i, j int) { b[i], b[j] = b[j], b[i] })
		}
	}
	return Peptide{Sequence: string(b), Mods: p.Mods}
}
