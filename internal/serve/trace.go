package serve

import (
	"context"
	"sort"

	"repro/internal/obsv"
)

// reqIDKey is the context key WithRequestID stores under.
type reqIDKey struct{}

// WithRequestID attaches a request ID (e.g. a propagated X-Request-ID)
// to the context; requests submitted under it carry the ID in their
// trace record, joining the access log to /debug/slowest.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestIDFrom returns the request ID attached by WithRequestID, or
// "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// Slowest returns the worst-latency query traces the server has
// retained (at most slowRingSize), sorted by total latency
// descending. Every completed request competes for a slot regardless
// of SlowQueryThreshold, so the ring is useful before any query
// crosses the threshold.
func (s *Server) Slowest() []obsv.QueryTrace {
	out := s.stats.slowestSnapshot()
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}
