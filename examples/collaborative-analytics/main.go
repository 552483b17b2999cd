// Collaborative analytics: the multi-tenant workflow from the paper's
// introduction and Fig 1 — two admins with branch-based access control work
// on the same dataset, fork, edit independently, and merge, with conflicts
// surfaced and resolved.
package main

import (
	"errors"
	"fmt"
	"log"

	"forkbase"
	"forkbase/internal/access"
	"forkbase/internal/index"
)

func main() {
	db := forkbase.MustOpen(forkbase.InMemory())
	defer db.Close()

	// Access control: admin A owns master; admin B may only touch the
	// "analytics-b" branch; an intern can read master but write nothing.
	acl := db.ACL()
	acl.Grant("admin-a", "metrics", access.Wildcard, access.Admin)
	acl.Grant("admin-b", "metrics", "analytics-b", access.Write)
	acl.Grant("admin-b", "metrics", "master", access.Read)
	acl.Grant("intern", "metrics", "master", access.Read)

	alice := db.SessionFor("admin-a")
	bob := db.SessionFor("admin-b")
	intern := db.SessionFor("intern")

	// Admin A publishes the shared metric definitions.
	base := []forkbase.Entry{
		{Key: []byte("metric:daily_active"), Val: []byte("count(distinct user_id)")},
		{Key: []byte("metric:revenue"), Val: []byte("sum(order_total)")},
		{Key: []byte("metric:churn"), Val: []byte("1 - retained/total")},
	}
	v, err := putMap(db, alice, "metrics", "master", base, "initial definitions")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("admin-a published", v.UID.Short())

	// The intern can read...
	if _, err := intern.Get("metrics", "master"); err != nil {
		log.Fatal(err)
	}
	// ...but not write.
	if _, err := putMap(db, intern, "metrics", "master", base, "sneaky edit"); !errors.Is(err, forkbase.ErrDenied) {
		log.Fatalf("intern write should be denied, got %v", err)
	}
	fmt.Println("intern write correctly denied")

	// Admin B forks their analytics branch and refines a metric.
	if err := bob.Branch("metrics", "analytics-b", "master"); err != nil {
		log.Fatal(err)
	}
	bEdit := append(append([]forkbase.Entry{}, base...),
		forkbase.Entry{Key: []byte("metric:churn"), Val: []byte("1 - retained_30d/total_30d")},
		forkbase.Entry{Key: []byte("metric:nps"), Val: []byte("promoters - detractors")},
	)
	if _, err := putMap(db, bob, "metrics", "analytics-b", bEdit, "B refinements"); err != nil {
		log.Fatal(err)
	}

	// Meanwhile admin A also refines churn on master — a conflict is born.
	aEdit := append(append([]forkbase.Entry{}, base...),
		forkbase.Entry{Key: []byte("metric:churn"), Val: []byte("1 - retained_7d/total_7d")},
	)
	if _, err := putMap(db, alice, "metrics", "master", aEdit, "A refinement"); err != nil {
		log.Fatal(err)
	}

	// Admin A merges B's branch: the conflicting churn definition is
	// detected at the key level...
	_, err = alice.Merge("metrics", "master", "analytics-b", nil, nil)
	var conflict *index.ErrConflict
	if !errors.As(err, &conflict) {
		log.Fatalf("expected a conflict, got %v", err)
	}
	for _, c := range conflict.Conflicts {
		fmt.Printf("conflict on %s:\n  A: %s\n  B: %s\n", c.Key, c.A, c.B)
	}

	// ...and resolved with an explicit policy (keep B's 30-day window).
	res, err := alice.Merge("metrics", "master", "analytics-b", forkbase.ResolveTheirs,
		map[string]string{"message": "adopt 30-day churn"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged as %s (changed keys: %d on master, %d on analytics-b)\n",
		res.Version.UID.Short(), res.Stats.DeltasA, res.Stats.DeltasB)

	// Everyone sees the agreed state; provenance is in the DAG.
	head, _ := db.Get("metrics", "master")
	ix, _ := db.IndexOf(head)
	churn, _ := ix.Get([]byte("metric:churn"))
	fmt.Println("final churn metric:", string(churn))
	hist, _ := db.History("metrics", "master", 0)
	fmt.Println("versions on master:", len(hist))
}

// putMap builds a map value and writes it through the session (so access
// control applies to the Put itself).
func putMap(db *forkbase.DB, s interface {
	Put(key, branch string, v forkbase.Value, meta map[string]string) (forkbase.Version, error)
}, key, branch string, entries []forkbase.Entry, msg string) (forkbase.Version, error) {
	v, err := db.NewMapValue(entries)
	if err != nil {
		return forkbase.Version{}, err
	}
	return s.Put(key, branch, v, map[string]string{"message": msg})
}
