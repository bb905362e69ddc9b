package survey

import (
	"errors"
	"testing"

	"icares/internal/mission"
	"icares/internal/stats"
)

func TestResponseValidation(t *testing.T) {
	good := Response{Name: "A", Day: 2, Answers: map[Question]int{Satisfaction: 5}}
	if err := good.Validate(); err != nil {
		t.Errorf("good response: %v", err)
	}
	bad := Response{Name: "A", Day: 2, Answers: map[Question]int{Satisfaction: 9}}
	if err := bad.Validate(); !errors.Is(err, ErrBadScale) {
		t.Errorf("bad response: %v", err)
	}
	var c Collection
	if err := c.Add(bad); err == nil {
		t.Error("bad response accepted")
	}
	if err := c.Add(good); err != nil || len(c.responses) != 1 {
		t.Errorf("add: %v, len %d", err, len(c.responses))
	}
}

func TestByDayAndForAstronaut(t *testing.T) {
	var c Collection
	add := func(name string, day, sat int) {
		t.Helper()
		if err := c.Add(Response{Name: name, Day: day, Answers: map[Question]int{Satisfaction: sat}}); err != nil {
			t.Fatal(err)
		}
	}
	add("A", 2, 6)
	add("B", 2, 4)
	add("A", 3, 2)
	byDay := c.ByDay(Satisfaction)
	if byDay[2] != 5 || byDay[3] != 2 {
		t.Errorf("by day = %v", byDay)
	}
}

func TestMoodModelGeneratesFullGrid(t *testing.T) {
	sc := mission.DefaultScenario(5)
	m := MoodModel{TrendFor: sc.TalkTrend, DeathDay: sc.DeathDay, Noise: 0.4}
	col, err := m.Generate(mission.Names(), 2, 14, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(col.responses) != 6*13 {
		t.Errorf("responses = %d, want %d", len(col.responses), 6*13)
	}
	// Scores must decline: early satisfaction above late satisfaction, and
	// the shortage day must dip below its neighbours.
	byDay := col.ByDay(Satisfaction)
	if byDay[2] <= byDay[14] {
		t.Errorf("satisfaction day2 %v <= day14 %v", byDay[2], byDay[14])
	}
	if byDay[11] >= byDay[10] {
		t.Errorf("shortage day %v not below day 10 %v", byDay[11], byDay[10])
	}
}

func TestMoodModelNilTrend(t *testing.T) {
	m := MoodModel{}
	if _, err := m.Generate([]string{"A"}, 2, 3, stats.NewRNG(1)); err == nil {
		t.Error("nil trend accepted")
	}
}

func TestCrossValidateCorrelation(t *testing.T) {
	sc := mission.DefaultScenario(7)
	m := MoodModel{TrendFor: sc.TalkTrend, DeathDay: sc.DeathDay, Noise: 0.3}
	col, err := m.Generate(mission.Names(), 2, 14, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	// A sensed metric that follows the same trend (e.g. the speech
	// fraction) must correlate positively with reported satisfaction.
	sensed := make(map[int]float64)
	for day := 2; day <= 14; day++ {
		sensed[day] = 0.4 * sc.TalkTrend(day)
	}
	r, n, err := CrossValidate(col, Satisfaction, sensed)
	if err != nil {
		t.Fatal(err)
	}
	if n != 13 {
		t.Errorf("days = %d", n)
	}
	if r < 0.6 {
		t.Errorf("correlation = %v, want strong positive", r)
	}
	// An unrelated constant metric yields a degenerate correlation error.
	flat := map[int]float64{2: 1, 3: 1, 4: 1}
	if _, _, err := CrossValidate(col, Satisfaction, flat); err == nil {
		t.Log("flat metric produced a defined correlation (possible with noise)")
	}
}

func TestQuestionStrings(t *testing.T) {
	want := map[Question]string{
		Satisfaction: "satisfaction",
		WellBeing:    "well-being",
		Comfort:      "comfort",
		Productivity: "productivity",
		Distraction:  "distraction",
	}
	for q, s := range want {
		if q.String() != s {
			t.Errorf("%v != %s", q, s)
		}
	}
	if Question(9).String() != "question(9)" {
		t.Error("unknown question")
	}
}
