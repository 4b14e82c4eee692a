package sim

// Fidelity is a one-value type left over from when the kernel shipped two
// allocator implementations. Nothing in this module reads it; it survives
// only because bench/surface.go binds sim.Fidelity, sim.FidelityFast and
// cluster.NewWith, and bench/ is frozen between benchmark PRs. The next
// benchmark PR unbinds the three names and deletes this file.
type Fidelity int

// FidelityFast is the only Fidelity.
const FidelityFast Fidelity = 0
