package hier

import _ "unsafe" // go:linkname

// poisonFrames is fl's use-after-release seam: with it set, every frame
// the engine releases is overwritten before it can be reused, so a root
// or edge test of this package fails if a partial's or an update's view
// outlives its lease.
//
//go:linkname poisonFrames github.com/gradsec/gradsec/internal/fl.poisonFrames
var poisonFrames bool

func init() { poisonFrames = true }
