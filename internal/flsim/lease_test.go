package flsim

import _ "unsafe" // go:linkname

// poisonFrames is fl's use-after-release seam: with it set, every frame
// the engine releases is overwritten before it can be reused, so every
// scenario of this package — the golden traces, the async, hierarchical
// and secure-aggregation runs — fails if a view outlives its lease.
//
//go:linkname poisonFrames github.com/gradsec/gradsec/internal/fl.poisonFrames
var poisonFrames bool

func init() { poisonFrames = true }
