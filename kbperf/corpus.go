package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"

	"kbtable"
	"kbtable/internal/dataset"
)

// corpusSeed fixes the knowledge base and the query pool, the kbgen and
// kbload default. The run's --seed varies only what a client controls:
// query order, popularity draws and update contents. A seed-dependent
// corpus would move every metric with the pool's heavy tail (one query
// is a quarter of a pass) and hide code changes behind input changes.
const corpusSeed = 1

// corpus is the input every workload shares: a SynthWiki knowledge base
// saved to a file, and the query pool harvested from it.
type corpus struct {
	path  string   // graph file, opened through kbtable.LoadGraph
	pool  []string // query texts
	vocab []string // distinct pool words, for update texts
	nodes int
	edges int
}

func makeCorpus(p params) (*corpus, error) {
	g := dataset.SynthWiki(dataset.WikiConfig{Entities: p.entities, Types: p.types, Seed: corpusSeed})
	path := filepath.Join(p.dir, "wiki.kb")
	if err := g.SaveFile(path); err != nil {
		return nil, fmt.Errorf("save corpus: %w", err)
	}
	qs := dataset.Workload(g, dataset.WorkloadConfig{PerM: p.perM, MaxM: p.maxM, Seed: corpusSeed})
	c := &corpus{path: path, nodes: g.NumNodes(), edges: g.NumEdges()}
	seen := map[string]bool{}
	for _, q := range qs {
		c.pool = append(c.pool, q.Text)
		for _, w := range strings.Fields(q.Text) {
			if !seen[w] {
				seen[w] = true
				c.vocab = append(c.vocab, w)
			}
		}
	}
	if len(c.pool) == 0 {
		return nil, fmt.Errorf("query pool is empty")
	}
	return c, nil
}

// makeUpdates returns n kbload-style update batches: one new entity whose
// text and two text attributes reuse pool words, so updates invalidate
// cached answers the way real writes would. Each batch references only
// the entity it creates.
func makeUpdates(rng *rand.Rand, vocab []string, n int) []kbtable.Update {
	out := make([]kbtable.Update, n)
	word := func() string { return vocab[rng.Intn(len(vocab))] }
	for i := range out {
		u := &out[i]
		e := u.AddEntity("LoadEntity", fmt.Sprintf("%s %s w%d", word(), word(), i))
		u.AddTextAttr(e, "Note", word()+" "+word())
		u.AddTextAttr(e, "Origin", fmt.Sprintf("kbperf update %d", i))
	}
	return out
}

// zipfDraws returns n pool indexes whose counts follow Zipf(s) over pool
// rank (index i has rank i+1), in a seed-shuffled order. The counts are
// allotted by largest remainder rather than drawn at random, so every
// seed requests the same multiset of queries and only their order (and
// thus cache reuse) changes; random draws would make the few heavy
// queries appear in some runs and not others.
func zipfDraws(rng *rand.Rand, poolSize, n int, s float64) []int {
	w := make([]float64, poolSize)
	var total float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		total += w[i]
	}
	counts := make([]int, poolSize)
	frac := make([]float64, poolSize)
	left := n
	for i := range w {
		exact := float64(n) * w[i] / total
		counts[i] = int(exact)
		frac[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	byFrac := make([]int, poolSize)
	for i := range byFrac {
		byFrac[i] = i
	}
	sort.SliceStable(byFrac, func(a, b int) bool { return frac[byFrac[a]] > frac[byFrac[b]] })
	for _, i := range byFrac[:left] {
		counts[i]++
	}
	out := make([]int, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, i)
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// digest fingerprints a ranked answer list: ranks, exact score bits,
// row counts, patterns, columns and every materialized cell.
func digest(answers []kbtable.Answer) uint64 {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	put(uint64(len(answers)))
	for _, a := range answers {
		put(uint64(a.Rank))
		put(math.Float64bits(a.Score))
		put(uint64(a.NumRows))
		str(a.Pattern)
		for _, cols := range [][]string{a.Columns, a.FullColumns} {
			put(uint64(len(cols)))
			for _, c := range cols {
				str(c)
			}
		}
		put(uint64(len(a.Rows)))
		for _, row := range a.Rows {
			put(uint64(len(row)))
			for _, cell := range row {
				str(cell)
			}
		}
	}
	return binary.LittleEndian.Uint64(h.Sum(nil))
}
