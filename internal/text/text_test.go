package text

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("WOW, that's AMAZING!!! 666")
	want := []string{"wow", "that", "s", "amazing", "666"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("Tokenize empty = %v", got)
	}
}

func TestEmbedDeterministic(t *testing.T) {
	e1 := NewEmbedder(16)
	e2 := NewEmbedder(16)
	a := e1.Embed("hello")
	b := e2.Embed("hello")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding not deterministic across embedders")
		}
	}
}

func TestEmbedUnitNorm(t *testing.T) {
	e := NewEmbedder(24)
	for _, w := range []string{"a", "product", "amazing", "xyzzy"} {
		v := e.Embed(w)
		var n float64
		for _, x := range v {
			n += x * x
		}
		if math.Abs(math.Sqrt(n)-1) > 1e-9 {
			t.Fatalf("embedding of %q has norm %v", w, math.Sqrt(n))
		}
	}
}

func TestEmbedDistinctWordsDiffer(t *testing.T) {
	e := NewEmbedder(16)
	a, b := e.Embed("suit"), e.Embed("tie")
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different words produced identical embeddings")
	}
}

func TestMeanEmbedding(t *testing.T) {
	e := NewEmbedder(8)
	m := e.MeanEmbedding(nil)
	for _, v := range m {
		if v != 0 {
			t.Fatal("mean of no tokens should be zero vector")
		}
	}
	single := e.MeanEmbedding([]string{"wow"})
	direct := e.Embed("wow")
	for i := range single {
		if single[i] != direct[i] {
			t.Fatal("mean of one token != its embedding")
		}
	}
	pair := e.MeanEmbedding([]string{"wow", "wow"})
	for i := range pair {
		if math.Abs(pair[i]-direct[i]) > 1e-12 {
			t.Fatal("mean of repeated token != the token embedding")
		}
	}
}

func TestSentimentPolarity(t *testing.T) {
	pos := AnalyzeString("this is amazing I love it")
	if pos.Polarity <= 0 {
		t.Fatalf("positive text polarity = %v", pos.Polarity)
	}
	neg := AnalyzeString("terrible awful scam")
	if neg.Polarity >= 0 {
		t.Fatalf("negative text polarity = %v", neg.Polarity)
	}
	neutral := AnalyzeString("the chair is on the floor")
	if neutral.Polarity != 0 {
		t.Fatalf("neutral text polarity = %v", neutral.Polarity)
	}
}

func TestSentimentNegation(t *testing.T) {
	plain := AnalyzeString("good")
	negated := AnalyzeString("not good")
	if !(plain.Polarity > 0 && negated.Polarity < 0) {
		t.Fatalf("negation failed: plain=%v negated=%v", plain.Polarity, negated.Polarity)
	}
}

func TestSentimentIntensifier(t *testing.T) {
	plain := AnalyzeString("good")
	boosted := AnalyzeString("very good")
	if boosted.Polarity <= plain.Polarity {
		t.Fatalf("intensifier failed: plain=%v boosted=%v", plain.Polarity, boosted.Polarity)
	}
	damped := AnalyzeString("slightly good")
	if damped.Polarity >= plain.Polarity {
		t.Fatalf("damper failed: plain=%v damped=%v", plain.Polarity, damped.Polarity)
	}
}

func TestSentimentRanges(t *testing.T) {
	f := func(words []string) bool {
		s := Analyze(words)
		return s.Polarity >= -1 && s.Polarity <= 1 && s.Subjectivity >= 0 && s.Subjectivity <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSubjectivity(t *testing.T) {
	subj := AnalyzeString("honestly I think this is really good")
	obj := AnalyzeString("the stream started at nine")
	if subj.Subjectivity <= obj.Subjectivity {
		t.Fatalf("subjectivity ordering wrong: %v vs %v", subj.Subjectivity, obj.Subjectivity)
	}
}

// TestLexiconExports: every strongly polar word of the lexicon (|p| > 0.3),
// analysed alone, keeps its sign.
func TestLexiconExports(t *testing.T) {
	var pos, neg []string
	for w, p := range polarityLexicon {
		switch {
		case p > 0.3:
			pos = append(pos, w)
		case p < -0.3:
			neg = append(neg, w)
		}
	}
	if len(pos) < 20 || len(neg) < 20 {
		t.Fatalf("lexicon too small: %d positive, %d negative", len(pos), len(neg))
	}
	sort.Strings(pos)
	sort.Strings(neg)
	for _, w := range pos {
		if s := AnalyzeString(w); s.Polarity <= 0 {
			t.Fatalf("positive word %q analyses to %v", w, s.Polarity)
		}
	}
	for _, w := range neg {
		// "no" is both a negator and a negative word; negators are consumed
		// before polarity lookup, so skip pure negators here.
		if negators[w] {
			continue
		}
		if s := AnalyzeString(w); s.Polarity >= 0 {
			t.Fatalf("negative word %q analyses to %v", w, s.Polarity)
		}
	}
}

func BenchmarkAnalyze(b *testing.B) {
	tokens := Tokenize("wow this is really amazing I love it not boring at all 666")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Analyze(tokens)
	}
}

func BenchmarkMeanEmbedding(b *testing.B) {
	e := NewEmbedder(16)
	tokens := Tokenize("wow this is really amazing I love it")
	e.MeanEmbedding(tokens) // warm cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MeanEmbedding(tokens)
	}
}
