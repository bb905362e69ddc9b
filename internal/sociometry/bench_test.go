package sociometry

import "testing"

// BenchmarkAstronautDerivations times the astronaut-level derivations of
// the report path — each crew member's worn track, mic frames and walking
// fraction — on a fresh batch pipeline per op over the 6-day fixture
// mission. The clock corrections are fitted once outside the loop, so an op
// is the streaming passes and the worn scans they start from.
func BenchmarkAstronautDerivations(b *testing.B) {
	src := newFixturePipeline(b).src
	warm, err := NewPipeline(src)
	if err != nil {
		b.Fatal(err)
	}
	cors, _ := warm.RectifyClocks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := NewPipeline(src, WithCorrections(cors))
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range src.Names {
			p.Track(name)
			p.Frames(name)
			p.WalkingFraction(name)
		}
	}
}
