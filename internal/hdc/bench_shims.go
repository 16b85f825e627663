package hdc

import "context"

// The frozen benchmark (bench/) still names what follows. ROADMAP
// item 1 deletes this file.

// BatchTopKRange is an uncancellable, untraced Search.
func (s *ShardedSearcher) BatchTopKRange(queries []BinaryHV, ranges []RowRange, k int) [][]Match {
	out, _ := s.Search(context.Background(), queries, ranges, k, nil)
	return out
}

// CascadeConfig is empty and ignored: every store has the one row
// layout.
type CascadeConfig struct{}

// NewShardedSearcherFromPacked is NewShardedSearcher; the CascadeConfig
// is ignored.
func NewShardedSearcherFromPacked(block []uint64, d, shardSize int, _ CascadeConfig) (*ShardedSearcher, error) {
	return NewShardedSearcher(block, d, shardSize)
}
