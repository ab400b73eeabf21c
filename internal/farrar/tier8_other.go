//go:build !amd64

package farrar

// Off amd64 the SWAR kernel (swar8.go) is the native 8-bit tier.

// native8 is empty: the SWAR tier keeps its profile in the Kernel.
type native8 struct{}

// buildNative8 packs the SWAR tier's profile.
func (k *Kernel) buildNative8() { k.buildSwarProfile8() }

// scoreNative8 is the 8-bit tier Kernel.Score tries first.
func (k *Kernel) scoreNative8(target []byte) (int, bool) { return k.ScoreSWAR8(target) }
