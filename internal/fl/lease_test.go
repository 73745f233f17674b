package fl

// Every test of this package runs with released frames poisoned: a view
// read after its frame's release reads 0xFF bytes, so a release point
// placed too early changes a fold, a telemetry merge or an escrowed
// share instead of passing unnoticed.
func init() { poisonFrames = true }
