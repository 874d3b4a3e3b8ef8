package analysis

// All returns the full mkvet analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Atomicstats,
		Blockingpub,
		Ctxleak,
		Determinism,
		Hotalloc,
		Lockemit,
		Maporder,
	}
}

// ByName resolves one analyzer (nil when unknown).
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
