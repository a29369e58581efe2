// Serving: run the nokserve query service in-process over the paper's
// bibliography, fire concurrent clients at it — some sharing hot
// expressions (cache hits), some unique (misses) — mutate the store
// mid-flight to demonstrate cache invalidation, then shut down gracefully.
//
// In production you would run the standalone binary instead:
//
//	nokserve -db bib.db -addr :8080
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"nok"
	"nok/internal/samples"
	"nok/internal/server"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "nok-serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	store, err := nok.Create(dir+"/bib.db", strings.NewReader(samples.Bibliography), nil)
	if err != nil {
		log.Fatal(err)
	}

	// The server owns the store from here on; Shutdown closes it.
	srv := server.New(store, server.Config{Workers: 4, QueueDepth: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", base)

	// 16 concurrent clients, 4 queries each, over two shared expressions:
	// the first evaluation of each misses, everything after hits the cache.
	queries := []string{
		`/bib/book/title`,
		`//book[author/last="Stevens"]`,
	}
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q := queries[(c+i)%len(queries)]
				resp, err := http.Get(base + "/query?q=" + strings.ReplaceAll(q, " ", "%20"))
				if err != nil {
					log.Printf("client %d: %v", c, err)
					return
				}
				var out struct {
					Count  int  `json:"count"`
					Cached bool `json:"cached"`
				}
				json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if c == 0 && i < len(queries) {
					fmt.Printf("client 0: %-32q -> %d results (cached=%v)\n", q, out.Count, out.Cached)
				}
			}
		}(c)
	}
	wg.Wait()
	fmt.Printf("cache hit ratio after concurrent run: %.2f\n", srv.CacheHitRatio())

	// A committed mutation advances the store epoch, which keys the result
	// cache: the next query misses the cache and sees the new book
	// immediately.
	err = store.Insert("0", strings.NewReader(
		`<book year="2004"><title>Succinct XML Storage</title><price>10</price></book>`))
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Get(base + "/query?q=" + queries[0])
	if err != nil {
		log.Fatal(err)
	}
	var out struct {
		Count  int  `json:"count"`
		Cached bool `json:"cached"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	fmt.Printf("after insert: %d titles (cached=%v — invalidated by epoch bump)\n", out.Count, out.Cached)

	// Graceful shutdown: stop the listener, drain in-flight queries, close
	// the store.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained and closed")
}
