package farrar

// HostPaths exposes hostPaths to the external tests.
func HostPaths(k *Kernel) map[string]*Kernel { return hostPaths(k) }
