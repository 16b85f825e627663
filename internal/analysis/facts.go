package analysis

import (
	"encoding/json"
	"sort"
)

// FactSet carries cross-package analysis facts: boolean properties of
// package-level objects, keyed by the object's fully-qualified name
// (types.Func.FullName / types.Object package path + name). Analyzers
// export facts about the package under analysis and consult facts
// imported from its dependencies — this is how mmapwrite/unmaplife
// recognize a helper in another package that returns a view into an
// mmap-backed index.
//
// Keys are names rather than opaque object handles so the set
// serializes to the .vetx file the go command caches per package (see
// RunUnitchecker) and reads back against another package's types.
type FactSet struct {
	m map[string]map[string]bool
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{m: map[string]map[string]bool{}}
}

// Add records fact about the object named objKey.
func (fs *FactSet) Add(objKey, fact string) {
	facts, ok := fs.m[objKey]
	if !ok {
		facts = map[string]bool{}
		fs.m[objKey] = facts
	}
	facts[fact] = true
}

// Has reports whether fact is recorded for objKey.
func (fs *FactSet) Has(objKey, fact string) bool {
	return fs != nil && fs.m[objKey][fact]
}

// Merge unions other into fs.
func (fs *FactSet) Merge(other *FactSet) {
	if other == nil {
		return
	}
	for obj, facts := range other.m {
		for f := range facts {
			fs.Add(obj, f)
		}
	}
}

// Len returns the number of objects with at least one fact.
func (fs *FactSet) Len() int { return len(fs.m) }

// Encode serializes the set as deterministic JSON — the payload of a
// .vetx file.
func (fs *FactSet) Encode() ([]byte, error) {
	out := make(map[string][]string, len(fs.m))
	for obj, facts := range fs.m {
		names := make([]string, 0, len(facts))
		for f := range facts {
			names = append(names, f)
		}
		sort.Strings(names)
		out[obj] = names
	}
	return json.Marshal(out)
}

// DecodeFacts parses a fact file produced by Encode. Empty input
// decodes to an empty set: vetx files written by fact-free runs (or
// by older versions of this driver) are zero bytes.
func DecodeFacts(data []byte) (*FactSet, error) {
	fs := NewFactSet()
	if len(data) == 0 {
		return fs, nil
	}
	var in map[string][]string
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	for obj, facts := range in {
		for _, f := range facts {
			fs.Add(obj, f)
		}
	}
	return fs, nil
}
