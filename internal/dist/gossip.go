// Flavor-knowledge federation: the coordinator periodically pulls each
// shard's FlavorCache snapshot, merges it into its own cache, and pushes
// the merged fleet knowledge back to every shard. Merging is EWMA through
// the cache's Observe path on both sides, so federation never clobbers a
// process's locally measured costs — it nudges them toward the fleet
// consensus, and a cold process (a shard joining, a restarted
// coordinator) warm-starts its next sessions from knowledge the rest of
// the fleet already paid the exploration tax for.
package dist

import (
	"fmt"
	"time"
)

// GossipOnce runs one pull-merge-push federation round and reports how
// many flavor estimates the coordinator imported from shards. Push
// failures don't abort the round — a shard that missed a push catches up
// next round — but the first error is returned so callers can log it.
func (c *Coordinator) GossipOnce() (imported int, err error) {
	for _, sh := range c.shards {
		snap, serr := sh.client.Flavors()
		if serr != nil {
			if err == nil {
				err = fmt.Errorf("dist: gossip pull %s: %w", sh.url, serr)
			}
			continue
		}
		imported += c.svc.Cache().Import(snap)
	}
	fleet := c.svc.Cache().Export()
	if fleet.Len() > 0 {
		for _, sh := range c.shards {
			if _, serr := sh.client.PushFlavors(fleet); serr != nil && err == nil {
				err = fmt.Errorf("dist: gossip push %s: %w", sh.url, serr)
			}
		}
	}
	c.gossipRounds.Add(1)
	c.gossipImported.Add(int64(imported))
	return imported, err
}

// StartGossip runs GossipOnce every interval until Stop. Errors are
// tolerated (the next round retries); starting twice is a no-op.
func (c *Coordinator) StartGossip(interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	c.gossipOnce.Do(func() {
		c.gossipStop = make(chan struct{})
		c.gossipDone = make(chan struct{})
		go func() {
			defer close(c.gossipDone)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-c.gossipStop:
					return
				case <-t.C:
					_, _ = c.GossipOnce()
				}
			}
		}()
	})
}

// Stop ends the gossip loop, if one is running, waits for it, and closes
// the shard clients' idle connections.
func (c *Coordinator) Stop() {
	if c.gossipStop != nil {
		select {
		case <-c.gossipStop:
		default:
			close(c.gossipStop)
		}
		<-c.gossipDone
	}
	for _, sh := range c.shards {
		sh.client.CloseIdleConnections()
	}
}
