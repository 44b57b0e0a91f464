// Package text provides the language substrate for audience-interaction
// features: tokenisation, deterministic word embeddings (a stand-in for the
// pre-trained Word2Vec the paper loads through gensim) and a lexicon-based
// sentiment analyser (a stand-in for TextBlob).
//
// The embeddings are hash-seeded pseudo-random unit vectors: any fixed
// mapping word → dense vector preserves the role the embedding plays in the
// audience feature (a bag-of-words summary whose distribution shifts when
// the comment vocabulary shifts), without shipping a 3 GB binary model.
package text

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"unicode"
)

// Tokenize lowercases s and splits it into maximal runs of letters/digits.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// Embedder maps words to fixed dense vectors of dimension Dim.
type Embedder struct {
	// Dim is the embedding dimensionality.
	Dim int
	// cache memoises per-word vectors; the map is not safe for concurrent
	// writers, so share an Embedder only from one goroutine or pre-warm it.
	cache map[string][]float64
}

// NewEmbedder returns an embedder producing dim-dimensional vectors.
func NewEmbedder(dim int) *Embedder {
	return &Embedder{Dim: dim, cache: make(map[string][]float64)}
}

// Embed returns the embedding of word. Identical words always map to the
// same vector across processes (the hash seed is derived from the word).
func (e *Embedder) Embed(word string) []float64 {
	if v, ok := e.cache[word]; ok {
		return v
	}
	h := fnv.New64a()
	h.Write([]byte(word))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	v := make([]float64, e.Dim)
	var norm float64
	for i := range v {
		v[i] = rng.NormFloat64()
		norm += v[i] * v[i]
	}
	norm = math.Sqrt(norm)
	if norm > 0 {
		for i := range v {
			v[i] /= norm
		}
	}
	e.cache[word] = v
	return v
}

// MeanEmbedding returns the average embedding of all tokens, the paper's
// "average word embedding" component of the audience interaction feature.
// It returns a zero vector for an empty token list.
func (e *Embedder) MeanEmbedding(tokens []string) []float64 {
	out := make([]float64, e.Dim)
	if len(tokens) == 0 {
		return out
	}
	for _, tok := range tokens {
		v := e.Embed(tok)
		for i := range out {
			out[i] += v[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(tokens))
	}
	return out
}

// Sentiment is a polarity/subjectivity pair in TextBlob's convention:
// polarity ∈ [-1, 1], subjectivity ∈ [0, 1].
type Sentiment struct {
	Polarity     float64
	Subjectivity float64
}

// polarity lexicon: live-stream oriented, mixing ordinary sentiment words
// with streaming-chat slang (the audience vocabulary the simulator emits).
var polarityLexicon = map[string]float64{
	// positive
	"good": 0.7, "great": 0.8, "awesome": 0.9, "amazing": 1.0, "love": 0.9,
	"like": 0.5, "nice": 0.6, "cool": 0.6, "best": 1.0, "perfect": 1.0,
	"wow": 0.8, "omg": 0.6, "lol": 0.4, "haha": 0.5, "fun": 0.6,
	"funny": 0.6, "beautiful": 0.85, "excellent": 0.9, "fantastic": 0.9,
	"hype": 0.7, "pog": 0.8, "poggers": 0.9, "win": 0.7, "winner": 0.8,
	"buy": 0.4, "buying": 0.5, "want": 0.3, "need": 0.3, "yes": 0.4,
	"666": 0.7, "fire": 0.7, "lit": 0.7, "insane": 0.6, "crazy": 0.4,
	"epic": 0.8, "sweet": 0.6, "happy": 0.8, "excited": 0.8, "gg": 0.6,
	"cute": 0.7, "pretty": 0.6, "stylish": 0.6, "fresh": 0.5, "deal": 0.4,
	"cheap": 0.3, "bargain": 0.6, "quality": 0.5, "smooth": 0.5, "clean": 0.5,
	"thanks": 0.6, "thank": 0.6, "please": 0.2, "more": 0.2, "again": 0.2,
	// negative
	"bad": -0.7, "terrible": -0.9, "awful": -0.9, "hate": -0.9, "worst": -1.0,
	"boring": -0.6, "bored": -0.6, "ugly": -0.7, "poor": -0.5, "lame": -0.6,
	"no": -0.3, "nope": -0.4, "meh": -0.3, "slow": -0.3, "laggy": -0.5,
	"scam": -0.9, "fake": -0.7, "expensive": -0.4, "overpriced": -0.6,
	"trash": -0.8, "garbage": -0.8, "cringe": -0.6, "sad": -0.6, "angry": -0.7,
	"broken": -0.6, "bug": -0.4, "fail": -0.6, "lose": -0.5, "loser": -0.7,
	"stupid": -0.7, "dumb": -0.6, "annoying": -0.6, "skip": -0.3, "leave": -0.3,
}

// subjectivity lexicon: words marking opinionated text.
var subjectivityLexicon = map[string]float64{
	"think": 0.6, "feel": 0.7, "believe": 0.7, "maybe": 0.5, "probably": 0.5,
	"definitely": 0.8, "really": 0.6, "very": 0.5, "totally": 0.7,
	"absolutely": 0.9, "imo": 0.9, "honestly": 0.8, "personally": 0.9,
}

// negators flip the polarity of the following sentiment word.
var negators = map[string]bool{
	"not": true, "no": true, "never": true, "dont": true, "didnt": true,
	"isnt": true, "wasnt": true, "wont": true, "cant": true, "nobody": true,
}

// intensifiers scale the polarity of the following sentiment word.
var intensifiers = map[string]float64{
	"very": 1.3, "so": 1.2, "really": 1.3, "super": 1.4, "extremely": 1.5,
	"totally": 1.3, "absolutely": 1.5, "slightly": 0.6, "kinda": 0.7,
	"somewhat": 0.7,
}

// Analyze scores the sentiment of tokens with negation and intensifier
// handling. It mirrors TextBlob's output ranges: polarity in [-1, 1],
// subjectivity in [0, 1].
func Analyze(tokens []string) Sentiment {
	var polSum, subSum float64
	var polCount, subCount int
	negate := false
	boost := 1.0
	for _, tok := range tokens {
		if negators[tok] {
			negate = true
			continue
		}
		if b, ok := intensifiers[tok]; ok {
			boost = b
			// "really" is also subjective; fall through for subjectivity.
		}
		if p, ok := polarityLexicon[tok]; ok {
			if negate {
				p = -p
				negate = false
			}
			p *= boost
			boost = 1.0
			polSum += clamp(p, -1, 1)
			polCount++
		}
		if s, ok := subjectivityLexicon[tok]; ok {
			subSum += s
			subCount++
		} else if _, ok := polarityLexicon[tok]; ok {
			// Sentiment-bearing words are themselves subjective.
			subSum += 0.6
			subCount++
		}
	}
	var out Sentiment
	if polCount > 0 {
		out.Polarity = clamp(polSum/float64(polCount), -1, 1)
	}
	if subCount > 0 {
		out.Subjectivity = clamp(subSum/float64(subCount), 0, 1)
	}
	return out
}

// AnalyzeString tokenises s and analyses it.
func AnalyzeString(s string) Sentiment { return Analyze(Tokenize(s)) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
