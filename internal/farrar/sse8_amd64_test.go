package farrar

import "testing"

func BenchmarkScore8SSE(b *testing.B) { benchTier(b, (*Kernel).ScoreSSE8) }
