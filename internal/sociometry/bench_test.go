package sociometry

import "testing"

// BenchmarkAstronautDerivations times the astronaut-level derivations of
// the report path on a fresh pipeline per op over the 6-day fixture
// mission. The clock corrections are fitted once outside the loop, so an op
// is the window passes and the worn scans they start from.
//
//   - batch: each crew member's worn track, mic frames and walking fraction,
//     appended window by window into one slice per astronaut.
//   - following: Follow, then Warm — the same windows, each memoized as a
//     partial the live fold keeps (plus the room intervals Warm builds).
func BenchmarkAstronautDerivations(b *testing.B) {
	src := newFixturePipeline(b).src
	warm, err := NewPipeline(src)
	if err != nil {
		b.Fatal(err)
	}
	cors, _ := warm.RectifyClocks()
	fresh := func(b *testing.B) *Pipeline {
		p, err := NewPipeline(src, WithCorrections(cors))
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := fresh(b)
			for _, name := range src.Names {
				p.Track(name)
				p.Frames(name)
				p.WalkingFraction(name)
			}
		}
	})
	b.Run("following", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := fresh(b)
			stop := p.Follow()
			p.Warm()
			stop()
		}
	})
}
