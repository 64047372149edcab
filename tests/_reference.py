"""Brute-force reference cache, written independently of the package.

Plain Python lists and dicts, no numpy: every lookup rescans all
entries with an explicit loop, recency is re-derived from scratch, and
eviction searches for the minimum instead of maintaining any index.
Slow on purpose; exists so the optimized simulator has something honest
to disagree with.
"""

DEPTH_BANDS = ((0.95, 25), (0.90, 20), (0.85, 15), (0.75, 10), (0.65, 5))


def _dot(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _depth_of(sim, bands):
    for bound, depth in bands:
        if sim > bound:
            return depth
    return 0


class RefCache:
    def __init__(self, capacity_bytes, bands=DEPTH_BANDS, same_res=True):
        self.capacity = capacity_bytes
        self.bands = bands
        self.same_res = same_res
        self.entries = []
        self.tick = 0
        self.next_id = 0

    def occupied(self):
        return sum(e["size"] for e in self.entries)

    def lookup(self, emb, res):
        tick = self.tick
        self.tick += 1
        cands = [e for e in self.entries if (not self.same_res) or e["res"] == res]
        if not cands:
            return {"outcome": "miss", "depth": 0, "matched": None}
        best = None
        best_key = None
        for e in cands:
            sim = _dot(emb, e["emb"])
            key = (sim, e["last_used"], -e["id"])
            if best_key is None or key > best_key:
                best, best_key = e, key
        depth = _depth_of(best_key[0], self.bands)
        if depth > 0:
            best["last_used"] = tick
            return {"outcome": "hit", "depth": depth, "matched": best["id"]}
        return {"outcome": "miss", "depth": 0, "matched": best["id"]}

    def insert(self, emb, res, size):
        if size > self.capacity:
            return None
        tick = self.tick
        self.tick += 1
        evicted = []
        while self.occupied() + size > self.capacity:
            victim = min(self.entries, key=lambda e: (e["last_used"], e["id"]))
            self.entries.remove(victim)
            evicted.append(victim["id"])
        self.entries.append(
            {
                "id": self.next_id,
                "emb": list(emb),
                "res": res,
                "size": size,
                "last_used": tick,
            }
        )
        self.next_id += 1
        return evicted


def _ref_steps(requests, capacity_bytes, entry_size, bands=DEPTH_BANDS,
               same_res=True, insert_on_hit=False):
    """Yield (outcome, depth, matched_id, evicted_ids, occupied_bytes) per request."""
    cache = RefCache(capacity_bytes, bands, same_res)
    for emb, res in requests:
        size = entry_size[res] if isinstance(entry_size, dict) else entry_size
        looked = cache.lookup(emb, res)
        evicted = []
        outcome = looked["outcome"]
        if outcome == "hit":
            if insert_on_hit:
                ev = cache.insert(emb, res, size)
                if ev is not None:
                    evicted = ev
        else:
            ev = cache.insert(emb, res, size)
            if ev is None:
                outcome = "too_large"
            else:
                evicted = ev
        yield outcome, looked["depth"], looked["matched"], tuple(evicted), cache.occupied()


def ref_replay(requests, capacity_bytes, entry_size, **options):
    """Replay (embedding, resolution) pairs; returns per-request tuples.

    ``entry_size`` is the size of every entry, or a dict of sizes by
    resolution. Each tuple is (outcome, depth, matched_id, evicted_ids).
    Entries that alone exceed capacity give outcome "too_large" with no
    insert. ``options`` are ``bands``, ``same_res`` and ``insert_on_hit``.
    """
    return [step[:4] for step in _ref_steps(requests, capacity_bytes, entry_size, **options)]


def ref_summary(requests, capacity_bytes, entry_size, step_cost, total_steps=50, **options):
    """The replay's accounting, summed in request order, as a dict of the
    fields of a replay summary. ``step_cost`` maps each resolution to its
    FLOPs per denoising step; a hit saves its depth in steps."""
    hits = depth_sum = evictions = peak = 0
    saved = full = 0.0
    steps = _ref_steps(requests, capacity_bytes, entry_size, **options)
    for (outcome, depth, _, evicted, occupied), (_, res) in zip(steps, requests):
        full += total_steps * step_cost[res]
        if outcome == "hit":
            hits += 1
            depth_sum += depth
            saved += depth * step_cost[res]
        evictions += len(evicted)
        peak = max(peak, occupied)
    n = len(requests)
    return {
        "requests": n,
        "hits": hits,
        "hit_rate": hits / n if n else 0.0,
        "mean_depth_over_hits": depth_sum / hits if hits else 0.0,
        "total_saved_flops": saved,
        "total_full_flops": full,
        "expected_cost_flops": full - saved,
        "peak_occupied_bytes": peak,
        "evictions": evictions,
    }
