package sociometry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"icares/internal/proximity"
)

// Report renders the complete post-mission analysis as a markdown document
// — the deliverable a sociometric team hands the mission organizers, and
// the single artifact that exercises every analysis in the package. The
// per-astronaut derivations are warmed concurrently and the independent
// sections render in parallel; the document is assembled in fixed section
// order, so equal seeds give byte-identical reports at any Parallelism.
func (p *Pipeline) Report() string {
	p.beginAnalysis()
	defer p.endAnalysis()
	p.Warm()
	sections := []func(*strings.Builder){
		p.reportDataset,
		p.reportTransitions,
		p.reportMobility,
		p.reportSpeech,
		p.reportSocial,
		p.reportEnvironment,
	}
	rendered := make([]strings.Builder, len(sections))
	p.forEach(len(sections), func(i int) { sections[i](&rendered[i]) })
	var b strings.Builder
	b.WriteString("# Mission sociometric report\n\n")
	for i := range rendered {
		b.WriteString(rendered[i].String())
	}
	return b.String()
}

func (p *Pipeline) reportDataset(b *strings.Builder) {
	w := p.Wear()
	fmt.Fprintf(b, "## Dataset\n\n")
	fmt.Fprintf(b, "- data days: %d..%d\n", p.src.FirstDay, p.src.LastDay)
	fmt.Fprintf(b, "- encoded volume: %.1f MiB\n", float64(w.TotalBytes)/(1<<20))
	fmt.Fprintf(b, "- badge worn %.0f%% of daytime, active %.0f%%\n\n",
		100*w.WornFraction, 100*w.ActiveFraction)
	days := sortedKeys(w.ByDay)
	fmt.Fprintf(b, "| day | worn |\n|---|---|\n")
	for _, d := range days {
		fmt.Fprintf(b, "| %d | %.0f%% |\n", d, 100*w.ByDay[d])
	}
	b.WriteString("\n")
}

func (p *Pipeline) reportTransitions(b *strings.Builder) {
	m := p.Transitions(nil)
	fmt.Fprintf(b, "## Room transitions (Fig. 2)\n\n")
	fmt.Fprintf(b, "%d passages total. Top pairs:\n\n", m.Total())
	for _, pair := range m.TopPairs(5) {
		fmt.Fprintf(b, "- %v → %v: %d\n", pair[0], pair[1], m.At(pair[0], pair[1]))
	}
	fmt.Fprintf(b, "\nWork sessions (≥ 30 min):\n\n| room | stays | mean | median |\n|---|---|---|---|\n")
	for _, s := range p.Stays(30 * time.Minute) {
		fmt.Fprintf(b, "| %v | %d | %s | %s |\n",
			s.Room, s.Stays, s.Mean.Round(time.Minute), s.Median.Round(time.Minute))
	}
	b.WriteString("\n")
}

func (p *Pipeline) reportMobility(b *strings.Builder) {
	fmt.Fprintf(b, "## Mobility (Fig. 4)\n\n| astronaut | walking | mean speed m/s |\n|---|---|---|\n")
	for _, name := range p.src.Names {
		var sum float64
		var n int
		for _, v := range p.MeanSpeedByDay(name) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			sum += v
			n++
		}
		var mean float64
		if n > 0 {
			mean = sum / float64(n)
		}
		fmt.Fprintf(b, "| %s | %.3f | %.2f |\n",
			name, sanitize(p.WalkingFraction(name)), sanitize(mean))
	}
	b.WriteString("\n")
}

func (p *Pipeline) reportSpeech(b *strings.Builder) {
	slope, tau := p.SpeechTrend()
	fmt.Fprintf(b, "## Speech (Fig. 6)\n\n")
	fmt.Fprintf(b, "Crew-mean trend: %+.4f/day (Mann-Kendall tau %+.2f).\n\n", slope, tau)
	share := p.VoiceGenderShare()
	fmt.Fprintf(b, "Voice gender split: %.0f%% female of %d classified frames.\n\n",
		100*share.FemaleFraction(), share.FemaleFrames+share.MaleFrames)
}

func (p *Pipeline) reportSocial(b *strings.Builder) {
	fmt.Fprintf(b, "## Social structure (Table I)\n\n")
	fmt.Fprintf(b, "| id | company | authority | talking | walking |\n|---|---|---|---|---|\n")
	for _, r := range p.TableI() {
		fmt.Fprintf(b, "| %s | %s | %s | %.2f | %.2f |\n",
			r.Name, na(r.Company), na(r.Authority), r.Talking, r.Walking)
	}
	pw := p.Pairwise()
	fmt.Fprintf(b, "\nTop pairs by shared time:\n\n")
	type pt struct {
		pair proximity.Pair
		d    time.Duration
	}
	var pairs []pt
	for pair, d := range pw.All {
		pairs = append(pairs, pt{pair, d})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].d != pairs[j].d {
			return pairs[i].d > pairs[j].d
		}
		return pairs[i].pair[0]+pairs[i].pair[1] < pairs[j].pair[0]+pairs[j].pair[1]
	})
	for i, e := range pairs {
		if i == 5 {
			break
		}
		fmt.Fprintf(b, "- %s–%s: %s together (%s private, %s face-to-face)\n",
			e.pair[0], e.pair[1], e.d.Round(time.Minute),
			pw.Private[e.pair].Round(time.Minute), pw.IR[e.pair].Round(time.Minute))
	}
	var maxPair time.Duration
	if len(pairs) > 0 {
		maxPair = pairs[0].d
	}
	fmt.Fprintf(b, "\nCommunities (ties ≥ %s):", (maxPair / 2).Round(time.Hour))
	for _, g := range p.Communities(maxPair / 2) {
		fmt.Fprintf(b, " %v", g)
	}
	b.WriteString("\n\n")
	// Meetings digest.
	meetings := p.Meetings(20 * time.Minute)
	group := 0
	for _, m := range meetings {
		if !m.Private() {
			group++
		}
	}
	fmt.Fprintf(b, "%d meetings ≥ 20 min (%d group, %d private).\n\n",
		len(meetings), group, len(meetings)-group)
}

func (p *Pipeline) reportEnvironment(b *strings.Builder) {
	fmt.Fprintf(b, "## Environment\n\n| room | samples | temp °C | lux |\n|---|---|---|---|\n")
	for _, c := range p.RoomClimates() {
		fmt.Fprintf(b, "| %v | %d | %.1f | %.0f |\n", c.Room, c.Samples, c.MeanTempC, c.MeanLux)
	}
	if warm, ok := p.WarmestRoom(30); ok {
		fmt.Fprintf(b, "\nWarmest room: **%v** (%.1f °C).\n", warm.Room, warm.MeanTempC)
	}
}

func na(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", v)
}

// sanitize clamps a non-finite aggregate to zero: when a chaos plan starves
// an astronaut of samples, a 0/0 or x/0 upstream must render as 0, not leak
// "NaN"/"Inf" into a numeric report cell.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func sortedKeys(m map[int]float64) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
