package hdc

import "context"

// BatchTopKRange is an uncancellable, untraced Search, kept for the
// frozen benchmark (bench/) until ROADMAP item 1 deletes this file.
func (s *ShardedSearcher) BatchTopKRange(queries []BinaryHV, ranges []RowRange, k int) [][]Match {
	out, _ := s.Search(context.Background(), queries, ranges, k, nil)
	return out
}
