package core

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseTiers parses a comma-separated cascade-ladder specification
// ("4,12,112") into per-tier packed-word widths — the parser behind
// omsbuild's -tiers flag, the one place a ladder is chosen. An empty
// string means "no explicit ladder" (nil). Widths must be positive
// integers; structural validity against the store's word count (the
// widths must not exceed it, a trailing remainder tier is appended
// automatically) is checked by the kernel layer when the engine is
// built.
func ParseTiers(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	tiers := make([]int, 0, len(parts))
	for i, part := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("core: tier %d of %q is not an integer", i, s)
		}
		if w <= 0 {
			return nil, fmt.Errorf("core: tier %d of %q has non-positive width %d", i, s, w)
		}
		tiers = append(tiers, w)
	}
	return tiers, nil
}
