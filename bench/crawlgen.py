"""Seeded generators for the crawl-fullpsl workload's input files.

Three files, all derived from one seed:

* a public suffix list in the ``public_suffix_list.dat`` format with about
  9.7k rules: an ICANN-style section of TLDs, second-level and geographic
  suffixes, a private section of hosting-provider suffixes, about 60
  wildcard rules and a few exception rules;
* an ad filter list with about 20k ``||host^`` anchors, a few dozen
  substring patterns and some rule forms the matcher skips;
* a crawl-shaped trace in the documented trace format: two profiles,
  interleaved tabs, reloads, first-party, tracker, widget
  and ad frames, requests to many distinct hosts, sites under multi-label,
  private, wildcard and exception suffixes, and Set-Cookie headers with
  ``Domain``, ``Path``, ``Max-Age`` and ``Expires`` (some of which expire in
  virtual time, one tick per event).

The generator counts the features it put into the trace so the benchmark
can refuse a degenerate input.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

EDGES_PER_FRAME = 12
PAGES_PER_TAB = 3
PSL_WILDCARDS = 60
PSL_EXCEPTIONS = 6

_SECOND_LEVEL = ("co", "com", "net", "org", "gov", "edu", "ac", "or", "ne", "go")
_SUBSTRING_RULES = (
    "/adserver/", "/pagead/*", "/banner*.html", "-ad-frame.", "/ads/iframe",
    "/adframe/", "/doubleclick/", "/sponsored/*/frame", "/promo/ad_", "/adunit/",
    "/adsys/*", "/ad-loader.", "/prebid/", "/rtb/*/win", "/ads?slot=",
    "/popunder/", "/interstitial/ad", "/gampad/", "/admanager/", "/ad_slot/",
    "/advert/*", "/adtag/", "/adview.", "/affiliates/*/banner", "/adbanner/",
    "/textad/", "/ad300x250.", "/ad728x90.", "/adclick/", "/adlog/",
)
# Cookie lifetimes. Replay's clock is the event index, so short Max-Age
# values and Expires dates a minute or two after the epoch can expire
# part-way through the trace; the others outlive it; "" is a session cookie.
_EXPIRES = {"Thu, 01 Jan 1970 00:01:10 GMT": 70, "Thu, 01 Jan 1970 00:02:10 GMT": 130,
            "Wed, 21 Oct 2037 07:28:00 GMT": 2139751680}
_LIFETIMES = ("Max-Age=20", "Max-Age=31536000", "Expires=Thu, 01 Jan 1970 00:01:10 GMT",
              "", "Max-Age=45", "Expires=Wed, 21 Oct 2037 07:28:00 GMT", "Max-Age=8",
              "Expires=Thu, 01 Jan 1970 00:02:10 GMT", "", "Max-Age=2592000")
_EDGE_TARGETS = ("script", "http_resource", "cookie_jar", "local_storage", "html_element",
                 "js_builtin", "web_api", "text_node")
# Third-party frame kinds, one per page load in turn: "ad" is matched by a
# domain anchor, "ad-path" by a substring rule.
_FRAME_CYCLE = ("tracker", "ad", "widget", "ad-path", "tracker", "tracker")
_SKIPPED_RULES = ("##.ad-banner", "###sponsored", "@@||example.com^",
                  "||ads.example^$third-party", "/track.gif$image")


def _label(rng: random.Random, lo: int, hi: int) -> str:
    consonants, vowels = "bcdfghjklmnprstvz", "aeiou"
    n = rng.randint(lo, hi)
    return "".join(rng.choice(consonants if i % 2 == 0 else vowels) for i in range(n))


def _unique_labels(rng: random.Random, count: int, lo: int, hi: int,
                   taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        label = _label(rng, lo, hi)
        if label not in taken:
            taken.add(label)
            out.append(label)
    return out


def _token(*parts: object) -> str:
    return hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()[:16]


@dataclass
class SuffixPlan:
    """The generated rule set plus the suffixes the trace draws hosts from."""

    text: str
    n_rules: int
    multi_label: list[str]       # e.g. "co.xyz": two-label normal rules
    private: list[str]           # e.g. "host.com": private-section rules
    wildcard_bases: list[str]    # "x.yz" for each "*.x.yz" rule
    exceptions: list[str]        # "city.x.yz" for each "!city.x.yz" rule
    tlds: list[str]


def make_psl(rng: random.Random, n_rules: int) -> SuffixPlan:
    """About 15% of the rules are TLDs, 35% second-level, 20% geographic and
    the rest private; the real list has a similar mix."""
    taken: set[str] = set()
    real = ["com", "net", "org", "io", "uk", "jp", "de", "fr", "au", "us", "info", "biz"]
    taken.update(real)
    tlds = real + _unique_labels(rng, n_rules * 3 // 20, 2, 5, taken)
    icann: list[str] = list(tlds)
    multi_label: list[str] = []
    for tld in tlds:
        if rng.random() < 0.45:
            for sld in rng.sample(_SECOND_LEVEL, rng.randint(3, 7)):
                icann.append(f"{sld}.{tld}")
                multi_label.append(f"{sld}.{tld}")
    geo_tlds = rng.sample(tlds[len(real):], max(2, n_rules // 800))
    geo_bases: list[str] = []
    for tld in geo_tlds:
        for city in _unique_labels(rng, 60, 4, 7, taken):
            base = f"{city}.{tld}"
            icann.append(base)
            geo_bases.append(base)
            for ward in rng.sample(_SECOND_LEVEL, 2):
                icann.append(f"{ward}.{base}")
    wildcard_bases = rng.sample(geo_bases, PSL_WILDCARDS)
    exceptions = [f"{_unique_labels(rng, 1, 4, 6, taken)[0]}.{base}"
                  for base in rng.sample(wildcard_bases, PSL_EXCEPTIONS)]
    n_private = n_rules - len(icann) - PSL_WILDCARDS - PSL_EXCEPTIONS
    if n_private < 100:
        raise RuntimeError("ICANN section overflowed the PSL size target")
    private = [f"{brand}.{rng.choice(('com', 'net', 'io', 'org') + tuple(tlds[:40]))}"
               for brand in _unique_labels(rng, n_private, 5, 9, taken)]
    lines = ["// ===BEGIN ICANN DOMAINS==="]
    lines += icann
    lines += [f"*.{base}" for base in wildcard_bases]
    lines += [f"!{rule}" for rule in exceptions]
    lines += ["// ===END ICANN DOMAINS===", "", "// ===BEGIN PRIVATE DOMAINS==="]
    lines += private
    lines.append("// ===END PRIVATE DOMAINS===")
    n_rules = len(icann) + len(wildcard_bases) + len(exceptions) + len(private)
    return SuffixPlan("\n".join(lines) + "\n", n_rules, multi_label, private,
                      wildcard_bases, exceptions, tlds)


@dataclass
class FilterPlan:
    text: str
    n_anchors: int
    ad_domains: list[str]    # anchored domains the trace embeds ad frames from


def make_filters(rng: random.Random, tlds: list[str], n_anchors: int) -> FilterPlan:
    anchors = [f"{label}.{rng.choice(tlds)}"
               for label in _unique_labels(rng, n_anchors, 5, 10, set())]
    rules = [f"||{a}^" for a in anchors] + list(_SUBSTRING_RULES) + list(_SKIPPED_RULES)
    rng.shuffle(rules)
    text = "! generated ad filter list\n" + "\n".join(rules) + "\n"
    return FilterPlan(text, len(anchors), rng.sample(anchors, 12))


@dataclass
class Features:
    """What the generated trace exercises; every count must be non-zero."""

    events: int = 0
    tabs: int = 0
    reloads: int = 0
    ad_frames: int = 0
    domain_cookies: int = 0
    max_age_cookies: int = 0
    expires_cookies: int = 0
    public_suffix_domain_cookies: int = 0
    wildcard_psl_hits: int = 0
    exception_psl_hits: int = 0
    # Cookies that expire before a later request to a host they cover.
    expired_before_reuse: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(vars(self))


class _CrawlBuilder:
    """Draws the crawl's hosts and writes the events of one page load."""

    def __init__(self, rng: random.Random, seed: int, psl: SuffixPlan,
                 filters: FilterPlan, features: Features):
        self.rng = rng
        self.seed = seed
        self.features = features
        names = _unique_labels(rng, 14, 4, 8, set())
        self.trackers = [f"{n}.{rng.choice(psl.tlds)}" for n in names[:3]]
        self.widgets = [f"{n}.{p}" for n, p in zip(names[3:6], rng.sample(psl.private, 3))]
        self.ad_domains = filters.ad_domains
        self.substring_ad_hosts = [f"{n}.{rng.choice(psl.tlds)}" for n in names[6:9]]
        self.multi_label = set(psl.multi_label)
        self.cookie_count = 0
        self.load_count = 0
        # First-party hosts: (host, its multi-label public suffix or None,
        # the feature counter a visit to it adds to).
        suffix = rng.choice(psl.multi_label)
        self.sites: list[tuple[str, str | None, str | None]] = [
            (f"www.{names[9]}.{suffix}", suffix, None),
            (f"www.{names[10]}.{rng.choice(psl.wildcard_bases)}", None, "wildcard_psl_hits"),
            (f"www.{rng.choice(psl.exceptions)}", None, "exception_psl_hits"),
            (f"{names[11]}.{rng.choice(psl.private)}", None, None),
        ]

    def _sub(self, domain: str) -> str:
        """A fresh subdomain: request and ad hosts rarely repeat while their
        sites do, as with real CDN and ad-server host names."""
        return f"{self.rng.choice(('e', 'cdn', 'px', 's', 'c'))}{self.rng.randrange(10000)}.{domain}"

    def _set_cookie(self, name: str, value: str, domain: str | None) -> str:
        f = self.features
        parts = [f"{name}={value}"]
        if domain is not None and domain not in self.multi_label and self.rng.random() < 0.05:
            domain = "unrelated.org"  # does not domain-match: the cookie is rejected
        if domain is not None:
            parts.append(f"Domain={domain}")
            f.domain_cookies += 1
            if domain in self.multi_label:
                f.public_suffix_domain_cookies += 1
        parts.append(self.rng.choice(("Path=/", "Path=/", "Path=/sync", "Path=/a/b")))
        # Lifetimes rotate, so every kind occurs in any trace of a few cookies.
        life = _LIFETIMES[self.cookie_count % len(_LIFETIMES)]
        self.cookie_count += 1
        if life:
            parts.append(life)
            if life.startswith("Max-Age"):
                f.max_age_cookies += 1
            else:
                f.expires_cookies += 1
        if self.rng.random() < 0.3:
            parts.append(self.rng.choice(("Secure", "HttpOnly", "SameSite=None")))
        return "; ".join(parts)

    def _frame(self, events: list[dict], tab: str, frame_id: str, url: str, profile: str,
               n_req: int, cookie_domain: str | None) -> None:
        rng = self.rng
        events.append({"type": "frame_load", "tab": tab, "frame_id": frame_id, "frame_url": url})
        host = url.split("/")[2]
        origin = f"https://{host}"
        for i in range(n_req):
            dest_host = host if i == 0 or cookie_domain is None else self._sub(cookie_domain)
            headers = []
            if i == 0 or rng.random() < 0.5:
                name = rng.choice(("uid", "sid", "pref", "tmp"))
                value = _token(self.seed, profile, host, name, rng.random())
                headers.append(self._set_cookie(name, value, cookie_domain))
            path = rng.choice(("/sync", "/a/b/pixel", "/beacon?x=1", "/"))
            events.append({"type": "http_request", "tab": tab, "frame_id": frame_id,
                           "dest_url": f"https://{dest_host}{path}",
                           "response_set_cookies": headers})
        events.append({"type": "script_storage", "tab": tab, "frame_id": frame_id,
                       "api": "cookie", "op": rng.choice(("get", "set")), "key": "uid",
                       "value": _token(self.seed, profile, host, "js")})
        events.append({"type": "script_storage", "tab": tab, "frame_id": frame_id,
                       "api": rng.choice(("local", "session", "indexed")), "op": "set",
                       "key": "k", "value": "v"})
        script = f"{origin}/app.js"
        for k in range(EDGES_PER_FRAME):
            target_type = _EDGE_TARGETS[k % len(_EDGE_TARGETS)]
            events.append({"type": "behavior_edge", "tab": tab, "frame_id": frame_id,
                           "edge": {"source_type": "script", "source_key": script,
                                    "edge_type": rng.choice(("reads", "writes", "calls")),
                                    "target_type": target_type,
                                    "target_key": f"{host}/{target_type}/{rng.randrange(4)}"}})

    def page_load(self, tab: str, site: int, page: int, profile: str) -> list[dict]:
        """The events after ``visit_start`` of one load of a page."""
        rng, f = self.rng, self.features
        host, suffix, psl_hit = self.sites[site]
        if psl_hit:
            setattr(f, psl_hit, getattr(f, psl_hit) + 1)
        events: list[dict] = []
        # Multi-label sites set a cookie whose Domain names their public
        # suffix, as real crawls see.
        self._frame(events, tab, "f0", f"https://{host}/p{page}", profile, 1, suffix)
        # The embedded frame rotates through the frame kinds, so every kind
        # occurs and the amount of work does not depend on the seed.
        kind = _FRAME_CYCLE[self.load_count % len(_FRAME_CYCLE)]
        self.load_count += 1
        if kind == "tracker":
            domain = rng.choice(self.trackers)
            self._frame(events, tab, "f1", f"https://w.{domain}/widget.html", profile, 2, domain)
        elif kind == "widget":
            domain = rng.choice(self.widgets)
            self._frame(events, tab, "f1", f"https://embed.{domain}/v1", profile, 1, None)
        elif kind == "ad":
            domain = rng.choice(self.ad_domains)
            self._frame(events, tab, "f1", f"https://{self._sub(domain)}/slot.html",
                        profile, 1, domain)
            f.ad_frames += 1
        else:
            host = self._sub(rng.choice(self.substring_ad_hosts))
            self._frame(events, tab, "f1", f"https://{host}/adframe/1.html", profile, 1, None)
            f.ad_frames += 1
        return events


def _attr(header: str, name: str) -> str | None:
    return next((a[len(name) + 1:] for a in header.split("; ")[1:]
                 if a.startswith(name + "=")), None)


def _expired_before_reuse(records: list[dict], public_suffixes: set[str]) -> int:
    """Count the accepted cookies with an expiry that a later request to a
    host they cover sees passed (replay's clock is the event index)."""
    requests = [(i, r["dest_url"].split("/")[2], r["response_set_cookies"])
                for i, r in enumerate(records) if r["type"] == "http_request"]
    count = 0
    for i, host, headers in requests:
        for header in headers:
            domain, max_age, expires = (_attr(header, a) for a in ("Domain", "Max-Age", "Expires"))
            if max_age is None and expires is None:
                continue
            expiry = i + int(max_age) if max_age is not None else _EXPIRES[expires]

            def covers(h: str) -> bool:
                return h == host if domain is None else h == domain or h.endswith("." + domain)

            if domain in public_suffixes or not covers(host):
                continue  # rejected when set
            count += any(j > i and j >= expiry and covers(h) for j, h, _ in requests)
    return count


def make_crawl(rng: random.Random, seed: int, psl: SuffixPlan,
               filters: FilterPlan) -> tuple[str, Features]:
    """Two profiles each crawl two sites on two interleaved tabs, visiting
    ``PAGES_PER_TAB`` pages of the site one after another on the tab; the
    first profile reloads the last page of its second site once.

    The four sites sit under a multi-label, a wildcard, an exception and a
    private suffix.
    """
    features = Features()
    builder = _CrawlBuilder(rng, seed, psl, filters, features)
    records: list[dict] = []
    for p in range(2):
        profile = f"prof{p}"
        # The tabs' events interleave in groups, as in a crawler driving
        # tabs in parallel.
        queues: list[list[list[dict]]] = []
        for i, site in enumerate((2 * p, 2 * p + 1)):
            tab, queue = f"{profile}-t{i}", []
            pages = rng.sample(range(2 * PAGES_PER_TAB), PAGES_PER_TAB)
            if (p, i) == (0, 1):
                pages.append(pages[-1])  # a reload: visit_start for the open page
                features.reloads += 1
            for page in pages:
                queue.append([{"type": "visit_start", "profile": profile, "crawl_iter": 1,
                               "tab": tab, "page_url": f"https://{builder.sites[site][0]}/p{page}"}])
                events = builder.page_load(tab, site, page, profile)
                queue += [events[j:j + 4] for j in range(0, len(events), 4)]
            queue.append([{"type": "visit_end", "tab": tab}])
            queues.append(queue)
        features.tabs += len(queues)
        visit_seq = 0
        while any(queues):
            queue = rng.choice([q for q in queues if q])
            for record in queue.pop(0):
                if record["type"] == "visit_start":
                    visit_seq += 1
                    record["visit_seq"] = visit_seq
                records.append(record)
    features.events = len(records)
    features.expired_before_reuse = _expired_before_reuse(records, set(psl.multi_label))
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
    return "\n".join(lines) + "\n", features


@dataclass
class CrawlInputs:
    psl: str
    filters: str
    trace: str
    features: Features
    n_psl_rules: int
    n_anchors: int


def make_crawl_inputs(seed: int, psl_rules: int, filter_anchors: int) -> CrawlInputs:
    rng = random.Random(seed)
    psl = make_psl(rng, psl_rules)
    filters = make_filters(rng, psl.tlds, filter_anchors)
    trace, features = make_crawl(rng, seed, psl, filters)
    return CrawlInputs(psl.text, filters.text, trace, features, psl.n_rules, filters.n_anchors)
