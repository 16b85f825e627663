package hdc

// Match is one similarity-search result.
type Match struct {
	// Index is the reference hypervector index.
	Index int
	// Similarity is the Hamming similarity (number of matching
	// components, in [0, D]).
	Similarity int
}

// worse reports whether a ranks strictly below b: lower similarity, or
// equal similarity and later in the tie order — tie(a.Index, b.Index)
// > 0 when tie is non-nil, a larger index otherwise.
func worse(a, b Match, tie func(a, b int) int) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity < b.Similarity
	}
	if tie != nil {
		return tie(a.Index, b.Index) > 0
	}
	return a.Index > b.Index
}
