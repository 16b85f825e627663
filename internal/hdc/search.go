package hdc

// Match is one similarity-search result.
type Match struct {
	// Index is the reference hypervector index.
	Index int
	// Similarity is the Hamming similarity (number of matching
	// components, in [0, D]).
	Similarity int
}

// worse reports whether a ranks strictly below b (lower similarity, or
// equal similarity with a larger index).
func worse(a, b Match) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity < b.Similarity
	}
	return a.Index > b.Index
}
