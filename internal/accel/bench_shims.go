package accel

import (
	"repro/internal/core"
	"repro/internal/hdc"
)

// The frozen benchmark (bench/) still names what follows: a forward to
// core. ROADMAP item 1 deletes this file.

// NewEncoderComponents forwards to core.NewEncoderComponents.
func NewEncoderComponents(op core.OperatingPoint) (*hdc.ItemMemory, *hdc.ChunkedLevelSet, error) {
	return core.NewEncoderComponents(op)
}
