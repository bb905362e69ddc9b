package sociometry

import (
	"math"
	"sort"
	"time"

	"icares/internal/localization"
	"icares/internal/proximity"
	"icares/internal/record"
	"icares/internal/simtime"
	"icares/internal/speech"
	"icares/internal/stats"
	"icares/internal/store"
)

// Presence assembles the proximity input: per astronaut, the worn-time room
// intervals. The per-astronaut intervals are derived in parallel and the
// whole map is memoized (dropped whenever the live fold recomputes a window).
func (p *Pipeline) Presence() proximity.Presence {
	p.beginAnalysis()
	defer p.endAnalysis()
	return p.presenceCache.get(struct{}{}, func(struct{}) proximity.Presence {
		ivs := make([][]localization.Interval, len(p.src.Names))
		p.forEach(len(p.src.Names), func(i int) {
			ivs[i] = p.Intervals(p.src.Names[i])
		})
		out := make(proximity.Presence, len(p.src.Names))
		for i, name := range p.src.Names {
			out[name] = ivs[i]
		}
		return out
	})
}

// SpeechByDay computes the Fig. 6 series for one astronaut: fraction of
// worn 15 s intervals with detected speech, per day.
func (p *Pipeline) SpeechByDay(name string) map[int]float64 {
	return speech.FractionByDay(p.Frames(name))
}

// SpeechTrend fits a line to the crew-mean speech fraction over days and
// returns the Mann-Kendall tau — negative when the crew talked less as the
// mission progressed, the trend the paper reports.
func (p *Pipeline) SpeechTrend() (slopePerDay float64, tau float64) {
	// Analyze the crew's mic frames in parallel; aggregate sequentially in
	// crew order for deterministic floating-point results.
	p.forEachName(func(name string) { p.Frames(name) })
	perDay := make(map[int][]float64)
	for _, name := range p.src.Names {
		for day, f := range p.SpeechByDay(name) {
			perDay[day] = append(perDay[day], f)
		}
	}
	days := make([]int, 0, len(perDay))
	for d := range perDay {
		days = append(days, d)
	}
	sort.Ints(days)
	xs := make([]float64, 0, len(days))
	ys := make([]float64, 0, len(days))
	for _, d := range days {
		xs = append(xs, float64(d))
		ys = append(ys, stats.Mean(perDay[d]))
	}
	if fit, err := stats.FitLine(xs, ys); err == nil {
		slopePerDay = fit.Slope
	}
	if _, t, err := stats.MannKendall(ys); err == nil {
		tau = t
	}
	return slopePerDay, tau
}

// TalkingFraction computes the Table I "talking" column for one astronaut:
// the fraction of their worn mic frames whose dominant voice is their own.
func (p *Pipeline) TalkingFraction(name string) float64 {
	const toleranceHz = 25
	talking, total := speech.TalkingFrames(p.Frames(name), p.src.VoiceProfiles, toleranceHz, name)
	if total == 0 {
		return 0
	}
	return float64(talking) / float64(total)
}

// HITS runs Kleinberg's algorithm on a weighted contact graph and returns
// the authority scores, normalized to max 1. For the symmetric co-presence
// graph hubs equal authorities; the paper's Table I reports the authority
// score next to raw company time.
func HITS(weights map[proximity.Pair]time.Duration, names []string, iters int) map[string]float64 {
	if iters <= 0 {
		iters = 50
	}
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	n := len(names)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for pair, d := range weights {
		i, ok1 := idx[pair[0]]
		j, ok2 := idx[pair[1]]
		if !ok1 || !ok2 {
			continue
		}
		w[i][j] = d.Seconds()
		w[j][i] = d.Seconds()
	}
	auth := make([]float64, n)
	hub := make([]float64, n)
	for i := range auth {
		auth[i], hub[i] = 1, 1
	}
	for it := 0; it < iters; it++ {
		// auth <- W^T hub ; hub <- W auth, with L2 normalization.
		next := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				next[i] += w[j][i] * hub[j]
			}
		}
		normalizeL2(next)
		copy(auth, next)
		next = make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				next[i] += w[i][j] * auth[j]
			}
		}
		normalizeL2(next)
		copy(hub, next)
	}
	// Scale to max 1 for the table.
	var mx float64
	for _, a := range auth {
		if a > mx {
			mx = a
		}
	}
	out := make(map[string]float64, n)
	for name, i := range idx {
		if mx > 0 {
			out[name] = auth[i] / mx
		} else {
			out[name] = 0
		}
	}
	return out
}

func normalizeL2(xs []float64) {
	var sum float64
	for _, x := range xs {
		sum += x * x
	}
	if sum == 0 {
		return
	}
	norm := math.Sqrt(sum)
	for i := range xs {
		xs[i] /= norm
	}
}

// TableIRow is one astronaut's row of the paper's Table I.
type TableIRow struct {
	Name string
	// Company is normalized time spent accompanied (NaN when the
	// astronaut has too little presence data, rendered "n/a" like C's).
	Company float64
	// Authority is the Kleinberg authority score from the co-presence
	// graph.
	Authority float64
	// Talking is the normalized fraction of worn time spent talking.
	Talking float64
	// Walking is the normalized fraction of worn time spent walking.
	Walking float64
}

// companyBasisFraction is the minimum tracked presence, relative to the
// best-tracked astronaut, for a meaningful mission-level company score.
// Astronaut C's 2.5 days out of 13 fall far below it, so — like the paper —
// Table I reports "n/a" (NaN) for C's company and authority.
const companyBasisFraction = 0.6

// TableI assembles the centrality table. Company and authority are set to
// NaN for astronauts whose tracked presence is too short for a
// mission-level comparison (the paper's C row).
func (p *Pipeline) TableI() []TableIRow {
	p.beginAnalysis()
	defer p.endAnalysis()
	presence := p.Presence()
	company := proximity.CompanyTime(presence)
	pairTime := proximity.PairTime(presence)

	// Determine who has enough data for company comparisons.
	tracked := make(map[string]time.Duration, len(p.src.Names))
	var maxTracked time.Duration
	for _, name := range p.src.Names {
		var total time.Duration
		for _, iv := range presence[name] {
			total += iv.Duration()
		}
		tracked[name] = total
		if total > maxTracked {
			maxTracked = total
		}
	}
	enough := func(name string) bool {
		return maxTracked > 0 &&
			float64(tracked[name]) >= companyBasisFraction*float64(maxTracked)
	}

	// Authority over astronauts with full presence only.
	var authNames []string
	for _, name := range p.src.Names {
		if enough(name) {
			authNames = append(authNames, name)
		}
	}
	authority := HITS(pairTime, authNames, 50)

	companyVals := make([]float64, len(p.src.Names))
	talkingVals := make([]float64, len(p.src.Names))
	walkingVals := make([]float64, len(p.src.Names))
	// The talking and walking columns are independent per astronaut: fan
	// them out, writing into per-index slots so the table order (and the
	// normalization input vectors) stay deterministic.
	p.forEach(len(p.src.Names), func(i int) {
		name := p.src.Names[i]
		if enough(name) {
			companyVals[i] = company[name].Seconds()
		} else {
			companyVals[i] = math.NaN()
		}
		talkingVals[i] = p.TalkingFraction(name)
		walkingVals[i] = p.WalkingFraction(name)
	})
	companyN := stats.Normalize(companyVals)
	talkingN := stats.Normalize(talkingVals)
	walkingN := stats.Normalize(walkingVals)

	rows := make([]TableIRow, len(p.src.Names))
	for i, name := range p.src.Names {
		auth := math.NaN()
		if a, ok := authority[name]; ok {
			auth = a
		}
		rows[i] = TableIRow{
			Name:      name,
			Company:   companyN[i],
			Authority: auth,
			Talking:   talkingN[i],
			Walking:   walkingN[i],
		}
	}
	return rows
}

// PairwiseReport holds the pairwise interaction totals behind the text's
// "A and F talked privately with each other for about 5 h more than D and
// E ... and spent together 10 h more on all meetings".
type PairwiseReport struct {
	All     map[proximity.Pair]time.Duration
	Private map[proximity.Pair]time.Duration
	IR      map[proximity.Pair]time.Duration
}

// Pairwise computes all three pairwise interaction measures.
func (p *Pipeline) Pairwise() PairwiseReport {
	p.beginAnalysis()
	defer p.endAnalysis()
	presence := p.Presence()
	return PairwiseReport{
		All:     proximity.PairTime(presence),
		Private: proximity.PrivatePairTime(presence),
		IR:      p.irPairTime(),
	}
}

// irPairTime maps IR records through the day-wise assignment to astronaut
// pairs. The attributed contacts are folded from the per-(astronaut, day)
// windowContacts partials — each window memoized independently, so a live
// append recomputes one window, not the mission — collected in parallel per
// astronaut and concatenated in crew order, preserving the sequential
// contact ordering. Peer attribution inside a window uses the memoized
// per-day BadgeID→name inverse (wearers), so each IR record costs O(1)
// instead of an O(crew) scan of BadgeFor.
func (p *Pipeline) irPairTime() map[proximity.Pair]time.Duration {
	perName := make([][]proximity.Contact, len(p.src.Names))
	p.forEach(len(p.src.Names), func(i int) {
		name := p.src.Names[i]
		var contacts []proximity.Contact
		for day := p.src.FirstDay; day <= p.src.LastDay; day++ {
			contacts = append(contacts, p.windowContacts(name, day)...)
		}
		perName[i] = contacts
	})
	var contacts []proximity.Contact
	for _, cs := range perName {
		contacts = append(contacts, cs...)
	}
	return proximity.IRPairTime(contacts, 15*time.Second)
}

// Meetings detects crew meetings (>= 2 people, >= minDur) from worn-time
// presence.
func (p *Pipeline) Meetings(minDur time.Duration) []proximity.Meeting {
	return proximity.Meetings(p.Presence(), 2, minDur)
}

// MeetingLoudness returns the crew-mean speech loudness during a meeting —
// the measure that shows the day-4 consolation was "clearly quieter" than
// lunch. Frames without detected speech are ignored.
func (p *Pipeline) MeetingLoudness(m proximity.Meeting) float64 {
	var sum float64
	var n int
	for _, name := range m.Participants {
		for _, f := range p.Frames(name) {
			if f.At < m.From || f.At >= m.To || !f.Speech {
				continue
			}
			sum += f.LoudDB
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeetingDominance attributes the speech heard during a meeting to
// speakers by voice fundamental and returns each participant's share of
// the attributed frames — the paper's "C's voice dominated during
// meetings" measurement. Frames whose fundamental matches no profile
// (screen readers, distorted audio) are dropped.
func (p *Pipeline) MeetingDominance(m proximity.Meeting) map[string]float64 {
	const toleranceHz = 25
	counts := make(map[string]int)
	total := 0
	for _, name := range m.Participants {
		for _, f := range p.Frames(name) {
			if f.At < m.From || f.At >= m.To || !f.Speech {
				continue
			}
			who, ok := speech.AttributeSpeaker(f.F0Hz, p.src.VoiceProfiles, toleranceHz)
			if !ok {
				continue
			}
			counts[who]++
			total++
		}
	}
	out := make(map[string]float64, len(counts))
	if total == 0 {
		return out
	}
	for who, n := range counts {
		out[who] = float64(n) / float64(total)
	}
	return out
}

// DominantSpeaker returns the crew member whose voice was attributed the
// largest share of meeting speech across all crew meetings of at least
// minDur, with the share (0 when no speech was attributed at all).
func (p *Pipeline) DominantSpeaker(minDur time.Duration) (string, float64) {
	totals := make(map[string]float64)
	for _, m := range p.Meetings(minDur) {
		for who, share := range p.MeetingDominance(m) {
			totals[who] += share * m.Duration().Seconds()
		}
	}
	var best string
	var bestV, sum float64
	for who, v := range totals {
		sum += v
		if v > bestV {
			best, bestV = who, v
		}
	}
	if sum == 0 {
		return "", 0
	}
	return best, bestV / sum
}

// WearStats summarizes badge usage like the paper's headline numbers
// ("an average badge was worn for 63% of daytime and for 84% of daytime it
// was active").
type WearStats struct {
	// WornFraction is worn time / daytime, averaged over astronauts.
	WornFraction float64
	// ActiveFraction is recording time / daytime.
	ActiveFraction float64
	// ByDay is the per-day mean worn fraction (the ~80% -> ~50% decline).
	ByDay map[int]float64
	// TotalBytes is the dataset size.
	TotalBytes int64
}

// daytimeRange returns the on-duty window of a day (08:00-22:00).
func daytimeRange(day int) record.TimeRange {
	start := simtime.StartOfDay(day)
	return record.TimeRange{From: start + 8*time.Hour, To: start + 22*time.Hour}
}

// Wear computes the usage statistics across the crew and data days. The
// per-astronaut records and worn ranges are derived in parallel; the
// floating-point accumulation below stays sequential in crew order so the
// result is byte-identical at any Parallelism.
func (p *Pipeline) Wear() WearStats {
	p.beginAnalysis()
	defer p.endAnalysis()
	p.forEachName(func(name string) { p.WornRanges(name) })
	out := WearStats{ByDay: make(map[int]float64), TotalBytes: p.sourceBytes()}
	var wornSum, activeSum, persons float64
	dayWorn := make(map[int]float64)
	dayCount := make(map[int]int)
	for _, name := range p.src.Names {
		if !p.hasRecords(name) {
			continue
		}
		worn := p.WornRanges(name)
		var daytime, wornT, activeT time.Duration
		for day := p.src.FirstDay; day <= p.src.LastDay; day++ {
			dr := daytimeRange(day)
			if p.src.BadgeFor(name, day) == 0 {
				continue
			}
			daytime += dr.Duration()
			w := worn.Clip(dr).Total()
			wornT += w
			activeT += p.activeTimeIn(name, day)
			dayWorn[day] += w.Seconds() / dr.Duration().Seconds()
			dayCount[day]++
		}
		if daytime == 0 {
			continue
		}
		persons++
		wornSum += wornT.Seconds() / daytime.Seconds()
		activeSum += activeT.Seconds() / daytime.Seconds()
	}
	if persons > 0 {
		out.WornFraction = wornSum / persons
		out.ActiveFraction = activeSum / persons
	}
	for day, sum := range dayWorn {
		out.ByDay[day] = sum / float64(dayCount[day])
	}
	return out
}

// activeTimeIn estimates recording coverage inside one day's daytime
// window. Like the other window partials it is memoized while following, so
// a warm live report does not rescan every record.
func (p *Pipeline) activeTimeIn(name string, day int) time.Duration {
	id := p.src.BadgeFor(name, day)
	if id == 0 {
		return 0
	}
	if !p.windowMemo() {
		return p.scanActiveTime(id, day)
	}
	return p.winActive.get(wkey{name, day}, func(wkey) time.Duration { return p.scanActiveTime(id, day) })
}

// scanActiveTime sums the spans between consecutive records in the day's
// daytime window, with gaps above 5 minutes treated as inactive. The window
// lies inside one mission day, so only that day's badge view contributes —
// streaming its window keeps Wear out-of-core.
func (p *Pipeline) scanActiveTime(id store.BadgeID, day int) time.Duration {
	const maxGap = 5 * time.Minute
	v, ok := p.View(id)
	if !ok {
		return 0
	}
	var total time.Duration
	var last time.Duration
	started := false
	window := daytimeRange(day)
	it := v.Iter(window.From, window.To, 0)
	for it.Next() {
		r := it.Record()
		if started {
			gap := r.Local - last
			if gap <= maxGap {
				total += gap
			}
		}
		last = r.Local
		started = true
	}
	return total
}
