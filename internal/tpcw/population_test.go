package tpcw

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"
	"testing"
)

// indexesDigest hashes what a population derives beside its rows, which
// populationDigest does not see: the best-sellers window and its
// quantities, the ranking of every subject, each customer's last order, the
// catalog's indexes (keys in sorted order), what a browser emulator is told,
// the next IDs and the nominal size. It ranks the best sellers, so it builds
// the store's best-sellers cache; take the row digest first if both are
// wanted from one store.
func indexesDigest(s *Store) string {
	h := sha256.New()
	put := func(v ...any) { fmt.Fprintln(h, v...) }
	put("recent", s.recentOrders)
	for id, q := range s.bsQty.all() {
		put("qty", id, q)
	}
	for _, subject := range s.Subjects() {
		put("best", subject, s.GetBestSellers(subject))
	}
	for c, o := range s.lastOrder.all() {
		put("last", c, o)
	}
	for _, ix := range []struct {
		name string
		m    map[string][]ItemID
	}{
		{"subject", s.cat.bySubject},
		{"new", s.cat.newBySubject},
		{"title", s.cat.titleIndex},
		{"author", s.cat.authorIndex},
	} {
		keys := make([]string, 0, len(ix.m))
		for k := range ix.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			put(ix.name, k, ix.m[k])
		}
	}
	put("info", s.Info())
	put("next", s.nextAddress, s.nextCustomer, s.nextOrder, s.nextCart)
	put("nominal", s.NominalBytes())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// indexesWant is indexesDigest of the paper population.
const indexesWant = "34ea5eeaf0c36a979f9871c190b1b4c20348ac3307bb25c8651962ef1b625062"

// TestPopulationIndexesAreUnchanged pins what the paper population derives
// beside its rows, as TestPopulationIsUnchanged pins the rows.
func TestPopulationIndexesAreUnchanged(t *testing.T) {
	if got := indexesDigest(Populate(paperPopulation)); got != indexesWant {
		t.Errorf("derived-state digest %s, want %s", got, indexesWant)
	}
}

// TestPopulateConcurrently: populations built side by side, as the
// experiment harness builds its state sizes, share nothing they write — two
// paper populations built at once each give both digests of one built alone.
func TestPopulateConcurrently(t *testing.T) {
	one := Populate(paperPopulation)
	rows, indexes := populationDigest(one), indexesDigest(one)
	var got [2][2]string
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := Populate(paperPopulation)
			got[i] = [2]string{populationDigest(s), indexesDigest(s)}
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != [2]string{rows, indexes} {
			t.Errorf("population %d built concurrently digests %s / %s, alone %s / %s", i, g[0], g[1], rows, indexes)
		}
	}
}
