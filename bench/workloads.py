"""The benchmark's three workloads: their inputs, the CLI commands of one
round, and the checks on what those commands write.

Every input derives from the run seed, and the same seed always gives the
same inputs and the same command seeds, so every round of a run must write
byte-identical outputs. The checks recompute what they can with plain numpy
or plain Python, apart from the program, and test the rest against
properties the method must have.
"""

import csv
import json
import math
import os

import numpy as np

SURVEY_N = 595
SURVEY_LAMBDA = (0.425, 0.575)
SURVEY_BETA_UPPER = (0.0046, 0.0014, 0.0058)
G = 2

SIZES = {
    # the benchmark proper
    "full": {
        "study_replicates": 24,
        "study_sweeps": 1000,
        "city_n": 15000,
        "city_q": 0.05,
        "large_n": 15000,
        "large_n0": 750,
        "large_sweeps": 1000,
        "profile_points": 300,
        "profile_step": 100,
        "n_rel_tol": 0.4,
        "lambda_tol": 0.07,
    },
    # a reduced copy for the benchmark's own tests
    "small": {
        "study_replicates": 6,
        "study_sweeps": 200,
        "city_n": 2000,
        "city_q": 0.1,
        "large_n": 2000,
        "large_n0": 100,
        "large_sweeps": 1000,
        "profile_points": 50,
        "profile_step": 20,
        "n_rel_tol": 0.75,
        "lambda_tol": 0.25,
    },
}


def scaled_beta_upper(n):
    """Survey-scale link probabilities scaled by 595 / n, which keeps the
    expected degree of each stratum what it is at survey scale."""
    return tuple(b * SURVEY_N / n for b in SURVEY_BETA_UPPER)


def beta_matrix(upper):
    b11, b12, b22 = upper
    return np.array([[b11, b12], [b12, b22]])


def command_seeds(workload, seed):
    """Per-command seeds, fixed by the workload name and the run seed."""
    entropy = [seed, sum(workload.encode())]
    return [int(x) for x in np.random.SeedSequence(entropy).generate_state(4)]


def _dump_json(doc, path):
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Workload:
    """Defaults for a workload whose commands run no study replicates."""

    def replicates(self):
        return 0

    def failed_replicates(self, out):
        return 0


# ------------------------------------------------------------ survey-study


class SurveyStudy(Workload):
    """`simulate` at the paper's survey scale: N = 595 generated from the
    survey-scale parameters, fixed-size initial samples of 89, 1000 sweeps,
    the default cap, two workers."""

    name = "survey-study"

    def __init__(self, size):
        self.size = SIZES[size]

    def make_inputs(self, seed, inputs):
        from snowball_sbm import survey_scale_params

        params = survey_scale_params()
        if not (np.array_equal(params.lam, SURVEY_LAMBDA)
                and np.array_equal(params.beta_upper(), SURVEY_BETA_UPPER)):
            raise RuntimeError("survey_scale_params() differs from the benchmark's generating values")
        config = {
            "population": {
                "params": {"lambda": list(SURVEY_LAMBDA), "beta": list(SURVEY_BETA_UPPER)},
                "n": SURVEY_N,
            },
            "replicates": self.size["study_replicates"],
            "design": {"mode": "fixed_size", "n0": 89},
            "mcmc": {"chain_length": self.size["study_sweeps"], "burn_in_fraction": 0.1},
            "master_seed": command_seeds(self.name, seed)[0],
        }
        _dump_json(config, os.path.join(inputs, "study.json"))

    def commands(self, seed, inputs, out, threads=2):
        study = os.path.join(out, "study")
        return [("simulate", ["simulate", "--config", os.path.join(inputs, "study.json"),
                              "--threads", str(threads), "--out", study])]

    def replicates(self):
        return self.size["study_replicates"]

    def sample_sizes(self, inputs, out):
        """Summed n0 and n1 over the study's replicates."""
        with open(os.path.join(out, "study", "estimates.csv")) as fh:
            rows = list(csv.DictReader(fh))
        return sum(int(r["n0"]) for r in rows), sum(int(r["n1"]) for r in rows)

    def failed_replicates(self, out):
        path = os.path.join(out, "study", "summary.json")
        if not os.path.exists(path):
            return self.replicates()
        doc = _load_json(path)
        return self.replicates() - int(doc["replicates_completed"])

    def check(self, seed, inputs, out):
        study = os.path.join(out, "study")
        problems = []
        summary = _load_json(os.path.join(study, "summary.json"))
        with open(os.path.join(study, "estimates.csv")) as fh:
            rows = list(csv.DictReader(fh))
        reps = self.replicates()
        if summary["failures"] or summary["replicates_completed"] != reps:
            problems.append(f"study: {len(summary['failures'])} failed replicates, "
                            f"{summary['replicates_completed']} of {reps} completed")
        if [int(r["replicate"]) for r in rows] != list(range(reps)):
            problems.append(f"study: estimates.csv holds replicates "
                            f"{[r['replicate'] for r in rows]}, expected 0..{reps - 1}")
        if not rows:
            return problems

        def column(name):
            return np.array([float(r[name]) for r in rows])

        for name in ["N", "lambda_1", "lambda_2", "beta_1_1", "beta_1_2", "beta_2_2"]:
            if not _rel_close(float(column(name).mean()), summary["stats"][name]["mean"], 1e-12):
                problems.append(f"study: summary mean of {name} is not the mean of estimates.csv")
        # lambda_1 is recovered against the realized population's share, as in
        # acceptance criterion 6; that share is itself a draw around 0.425
        # with sd sqrt(0.425 * 0.575 / 595) = 0.020, so 0.425 +- 0.04 alone
        # would fail on about one seed in twenty.
        realized = summary["targets"]["lambda"][0]
        lam_sd = math.sqrt(SURVEY_LAMBDA[0] * SURVEY_LAMBDA[1] / SURVEY_N)
        if abs(realized - SURVEY_LAMBDA[0]) > 5 * lam_sd:
            problems.append(f"study: realized lambda_1 {realized:.4f} is more than 5 sd from 0.425")
        mean_lam1 = float(column("lambda_1").mean())
        if abs(mean_lam1 - realized) >= 0.04:
            problems.append(f"study: mean lambda_1 {mean_lam1:.4f} not within 0.04 of the "
                            f"population's {realized:.4f}")
        for name, target in zip(["beta_1_1", "beta_1_2", "beta_2_2"], SURVEY_BETA_UPPER):
            ratio = float(column(name).mean()) / target
            if not 0.5 < ratio < 2.0:
                problems.append(f"study: mean {name} is {ratio:.2f} times the generating value")
        median_n = float(np.median(column("N")))
        if not 450 <= median_n <= 800:
            problems.append(f"study: median N estimate {median_n:.1f} outside [450, 800]")
        final = float(((column("n0") + column("n1")) / SURVEY_N).mean())
        if not 0.28 <= final <= 0.44:
            problems.append(f"study: mean final fraction {final:.3f} outside [0.28, 0.44]")
        return problems


# --------------------------------------------------------- city-population


class CityPopulation(Workload):
    """`generate -> sample -> mle` on a city-scale population with the
    survey-scale mean degree and a 5 % Bernoulli initial sample."""

    name = "city-population"

    def __init__(self, size):
        self.size = SIZES[size]
        self.n = self.size["city_n"]
        self.q = self.size["city_q"]
        self.beta_upper = scaled_beta_upper(self.n)

    def make_inputs(self, seed, inputs):
        import snowball_sbm  # noqa: F401  (set-up time includes the import)

        doc = {"G": G, "lambda": list(SURVEY_LAMBDA), "beta": list(self.beta_upper)}
        _dump_json(doc, os.path.join(inputs, "params.json"))

    def commands(self, seed, inputs, out, threads=2):
        gen_seed, sample_seed = command_seeds(self.name, seed)[:2]
        pop = os.path.join(out, "pop")
        edges, strata = os.path.join(pop, "edges.tsv"), os.path.join(pop, "strata.csv")
        return [
            ("generate", ["generate", "--params", os.path.join(inputs, "params.json"),
                          "--n", str(self.n), "--seed", str(gen_seed), "--out", pop]),
            ("sample", ["sample", "--edges", edges, "--strata", strata,
                        "--design", f"bernoulli:{self.q}", "--seed", str(sample_seed),
                        "--out", os.path.join(out, "sample.json")]),
            ("mle", ["mle", "--edges", edges, "--strata", strata,
                     "--out", os.path.join(out, "mle.json")]),
        ]

    def sample_sizes(self, inputs, out):
        sample = _load_json(os.path.join(out, "sample.json"))
        return sample["n0"], sample["n1"]

    def check(self, seed, inputs, out):
        problems = []
        strata = read_strata(os.path.join(out, "pop", "strata.csv"))
        n = strata.size
        if n != self.n:
            problems.append(f"city: strata.csv covers {n} nodes, expected {self.n}")
        edges = read_edges(os.path.join(out, "pop", "edges.tsv"))
        u, v = edges[:, 0], edges[:, 1]
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            problems.append("city: edges.tsv has node ids outside 0..N-1")
            return problems
        if np.any(u >= v):
            problems.append("city: edges.tsv has a pair with u >= v")
        if np.unique(u * n + v).size != u.size:
            problems.append("city: edges.tsv has duplicate edges")

        counts = np.bincount(strata, minlength=G)
        su, sv = np.minimum(strata[u], strata[v]), np.maximum(strata[u], strata[v])
        links = np.zeros((G, G), dtype=np.int64)
        np.add.at(links, (su, sv), 1)
        mle = _load_json(os.path.join(out, "mle.json"))
        if mle["N"] != n:
            problems.append(f"city: mle.json N {mle['N']} != {n}")
        for k in range(G):
            if abs(mle["lambda"][k] - counts[k] / n) > 1e-12:
                problems.append(f"city: mle lambda_{k + 1} {mle['lambda'][k]!r} != stratum share {counts[k] / n!r}")
        beta_gen = beta_matrix(self.beta_upper)
        pos = 0
        for k in range(G):
            for l in range(k, G):
                total = counts[k] * (counts[k] - 1) // 2 if k == l else counts[k] * counts[l]
                frac = links[k, l] / total
                if abs(mle["beta_upper"][pos] - frac) > 1e-12:
                    problems.append(f"city: mle beta_{k + 1}_{l + 1} {mle['beta_upper'][pos]!r} "
                                    f"!= edge fraction {frac!r}")
                expect, b = total * beta_gen[k, l], beta_gen[k, l]
                if abs(links[k, l] - expect) > 5 * math.sqrt(total * b * (1 - b)):
                    problems.append(f"city: {links[k, l]} edges in pair {k + 1},{l + 1}, "
                                    f"more than 5 sd from {expect:.1f}")
                pos += 1

        sample = _load_json(os.path.join(out, "sample.json"))
        n0, n1 = sample["n0"], sample["n1"]
        if abs(n0 - self.q * n) > 5 * math.sqrt(n * self.q * (1 - self.q)):
            problems.append(f"city: n0 {n0} more than 5 sd from qN = {self.q * n:.0f}")
        problems += check_link_list(sample, "city")
        return problems


# --------------------------------------------------- large-sample-estimate


class LargeSampleEstimate(Workload):
    """`estimate` and `profile` on one large sample (n0 = 750 from N = 15000)
    that the benchmark draws from the model itself, so the program sees only
    the sample file and the true values are known."""

    name = "large-sample-estimate"

    def __init__(self, size):
        self.size = SIZES[size]
        self.n = self.size["large_n"]
        self.n0 = self.size["large_n0"]
        self.beta_upper = scaled_beta_upper(self.n)

    def make_inputs(self, seed, inputs):
        import snowball_sbm  # noqa: F401  (set-up time includes the import)

        rng = np.random.default_rng(command_seeds(self.name, seed)[2])
        sample, truth = draw_sample(rng, self.n, self.n0, SURVEY_LAMBDA, beta_matrix(self.beta_upper))
        _dump_json(sample, os.path.join(inputs, "sample.json"))
        _dump_json({"G": G, "lambda": list(SURVEY_LAMBDA), "beta": list(self.beta_upper)},
                   os.path.join(inputs, "params.json"))
        os.makedirs(os.path.join(inputs, "truth"), exist_ok=True)
        _dump_json(truth, os.path.join(inputs, "truth", "truth.json"))

    def grid(self, inputs):
        sample = _load_json(os.path.join(inputs, "sample.json"))
        lo = sample["n0"] + sample["n1"]
        step = self.size["profile_step"]
        return lo, lo + step * (self.size["profile_points"] - 1), step

    def commands(self, seed, inputs, out, threads=2):
        est_seed = command_seeds(self.name, seed)[3]
        sample = os.path.join(inputs, "sample.json")
        lo, hi, step = self.grid(inputs)
        return [
            ("estimate", ["estimate", "--sample", sample, "--chain-length", str(self.size["large_sweeps"]),
                          "--burn-in", "0.1", "--seed", str(est_seed), "--out", os.path.join(out, "est")]),
            ("profile", ["profile", "--sample", sample, "--params", os.path.join(inputs, "params.json"),
                         "--n-min", str(lo), "--n-max", str(hi), "--n-step", str(step),
                         "--out", os.path.join(out, "profile.csv")]),
        ]

    def sample_sizes(self, inputs, out):
        sample = _load_json(os.path.join(inputs, "sample.json"))
        return sample["n0"], sample["n1"]

    def check(self, seed, inputs, out):
        problems = []
        sample = _load_json(os.path.join(inputs, "sample.json"))
        truth = _load_json(os.path.join(inputs, "truth", "truth.json"))
        n0, n1 = sample["n0"], sample["n1"]
        n_s = n0 + n1
        cap = max(math.ceil(100.0 * n_s), n_s)
        sweeps = self.size["large_sweeps"]

        trace = np.loadtxt(os.path.join(out, "est", "trace.csv"), delimiter=",", skiprows=1, ndmin=2)
        if trace.shape[0] != sweeps:
            problems.append(f"large: trace.csv has {trace.shape[0]} rows for {sweeps} sweeps")
        n_draws, lam = trace[:, 1], trace[:, 2:2 + G]
        if np.any(n_draws < n_s) or np.any(n_draws > cap):
            problems.append(f"large: N draws outside [{n_s}, {cap}]")
        if np.any(np.abs(lam.sum(axis=1) - 1.0) > 1e-9):
            problems.append("large: a lambda row does not sum to 1")
        kept = slice(int(sweeps * 0.1), None)
        n_mean, lam_mean = n_draws[kept].mean(), lam[kept].mean(axis=0)
        # tolerances hold on any seed: about twice the worst miss seen over
        # the seeds recorded in the README
        n_tol, lam_tol = self.size["n_rel_tol"], self.size["lambda_tol"]
        if abs(n_mean - truth["N"]) > n_tol * truth["N"]:
            problems.append(f"large: posterior mean N {n_mean:.0f} not within {n_tol:.0%} of {truth['N']}")
        if np.any(np.abs(lam_mean - np.array(truth["lambda"])) > lam_tol):
            problems.append(f"large: posterior mean lambda {lam_mean} not within {lam_tol} of {truth['lambda']}")

        lo, hi, step = self.grid(inputs)
        with open(os.path.join(out, "profile.csv")) as fh:
            rows = list(csv.DictReader(fh))
        grid = list(range(lo, hi + 1, step))
        if [int(r["N"]) for r in rows] != grid:
            problems.append("large: profile.csv rows do not follow the requested grid")
            return problems
        obs = [float(r["observed_loglik"]) for r in rows]
        ign = [float(r["ignored_loglik"]) for r in rows]
        if any(b >= a for a, b in zip(obs, obs[1:])):
            problems.append("large: observed log-likelihood is not strictly decreasing in N")
        params = _load_json(os.path.join(inputs, "params.json"))
        reference = LabelFreeLikelihood(sample, params["lambda"], params["beta"])
        for n, o, i in zip(grid, obs, ign):
            head = log_binom(n - n0, n1) + log_binom(n, n0)
            if not _rel_close(i - o, head, 1e-9):
                problems.append(f"large: at N={n} ignored - observed = {i - o!r}, expected {head!r}")
                break
            if not _rel_close(i, reference(n), 1e-9):
                problems.append(f"large: at N={n} ignored log-likelihood {i!r} != reference {reference(n)!r}")
                break
        return problems


WORKLOADS = {cls.name: cls for cls in (SurveyStudy, CityPopulation, LargeSampleEstimate)}


# ---------------------------------------------------------------- helpers


def read_strata(path):
    with open(path) as fh:
        next(fh)
        pairs = np.array([line.split(",") for line in fh if line.strip()], dtype=np.int64).reshape(-1, 2)
    if not np.array_equal(pairs[:, 0], np.arange(pairs.shape[0])):
        raise ValueError(f"{path}: node ids do not run 0..N-1 in order")
    return pairs[:, 1] - 1


def read_edges(path):
    with open(path) as fh:
        if next(fh).strip() != "u\tv":
            raise ValueError(f"{path}: missing header")
        return np.array([line.split("\t") for line in fh if line.strip()], dtype=np.int64).reshape(-1, 2)


def check_link_list(sample, label):
    """Every link has an endpoint in the initial sample and every wave unit
    has a link into it."""
    n0, n1 = sample["n0"], sample["n1"]
    problems = []
    reached = set()
    for i, j in sample["links"]:
        if not (1 <= i <= n0 and i < j <= n0 + n1):
            problems.append(f"{label}: link [{i}, {j}] has no endpoint in the initial sample")
            break
        reached.add(j)
    if any(j not in reached for j in range(n0 + 1, n0 + n1 + 1)):
        problems.append(f"{label}: a wave unit has no link into the initial sample")
    return problems


def log_binom(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


class LabelFreeLikelihood:
    """Plain-Python label-free (ignored) log-likelihood of a one-wave sample,
    from its link list:

        log C(N - n0, n1) + sum_k c_k log lambda_k
        + sum_{k<=l} [m_kl log beta_kl + (t_kl - m_kl) log(1 - beta_kl)]
        + (N - n0 - n1) log sum_k lambda_k prod_{i in S0} (1 - beta_{C_i, k})

    with c the sampled stratum counts, m the observed links and t the
    observed pairs per unordered stratum pair.
    """

    def __init__(self, sample, lam, beta_upper):
        n0, n1 = sample["n0"], sample["n1"]
        s0 = [s - 1 for s in sample["strata_s0"]]
        s1 = [s - 1 for s in sample["strata_s1"]]
        labels = s0 + s1
        g = len(lam)
        beta = [[0.0] * g for _ in range(g)]
        pos = 0
        for k in range(g):
            for l in range(k, g):
                beta[k][l] = beta[l][k] = beta_upper[pos]
                pos += 1
        c0 = [s0.count(k) for k in range(g)]
        c1 = [s1.count(k) for k in range(g)]
        links = [[0] * g for _ in range(g)]
        for i, j in sample["links"]:
            a, b = sorted((labels[i - 1], labels[j - 1]))
            links[a][b] += 1
        fixed = sum(_xlogy(c0[k] + c1[k], lam[k]) for k in range(g))
        for k in range(g):
            for l in range(k, g):
                if k == l:
                    pairs = c0[k] * (c0[k] - 1) // 2 + c0[k] * c1[k]
                else:
                    pairs = c0[k] * c0[l] + c0[k] * c1[l] + c0[l] * c1[k]
                fixed += _xlogy(links[k][l], beta[k][l])
                fixed += (pairs - links[k][l]) * math.log1p(-beta[k][l]) if pairs - links[k][l] else 0.0
        escape = sum(lam[k] * math.prod((1.0 - beta[c][k]) ** c0[c] for c in range(g)) for k in range(g))
        self.n0, self.n1, self.fixed = n0, n1, fixed
        self.log_escape = math.log(escape)

    def __call__(self, n):
        free = n - self.n0 - self.n1
        return log_binom(n - self.n0, self.n1) + self.fixed + free * self.log_escape


def _xlogy(x, y):
    return x * math.log(y) if x else 0.0


def draw_sample(rng, n, n0, lam, beta):
    """Draw one one-wave snowball sample straight from the block model.

    Strata are i.i.d. categorical, so a uniform fixed-size initial sample
    has the same law as the first n0 units; each pair with an endpoint in
    it is linked independently with its stratum pair's probability, and a
    unit outside it joins the wave when it has at least one such link.
    Returns the sample document (program input) and the true values.
    """
    strata = rng.choice(len(lam), size=n, p=lam)
    s0 = strata[:n0]
    within = np.triu(rng.random((n0, n0)) < beta[s0[:, None], s0[None, :]], 1)
    wave_strata, wave_links = [], []
    chunk = 2000
    for start in range(n0, n, chunk):
        block = strata[start:start + chunk]
        linked = rng.random((block.size, n0)) < beta[block[:, None], s0[None, :]]
        hit = linked.any(axis=1)
        wave_strata.append(block[hit])
        wave_links.append(linked[hit])
    s1 = np.concatenate(wave_strata)
    cross = np.concatenate(wave_links)  # (n1, n0)
    links = [[int(i) + 1, int(j) + 1] for i, j in zip(*np.nonzero(within))]
    links += [[int(i) + 1, n0 + int(w) + 1] for i, w in zip(*np.nonzero(cross.T))]
    links.sort()
    sample = {
        "n0": int(n0),
        "n1": int(s1.size),
        "strata_s0": [int(s) + 1 for s in s0],
        "strata_s1": [int(s) + 1 for s in s1],
        "links": links,
        "meta": {"n_strata": len(lam)},
    }
    truth = {
        "N": int(n),
        "lambda": list(lam),
        "strata_counts": [int(c) for c in np.bincount(strata, minlength=len(lam))],
    }
    return sample, truth
