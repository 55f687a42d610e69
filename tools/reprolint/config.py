"""Declarative configuration, read from ``[tool.reprolint]`` in pyproject.toml.

Everything the rules need to know about *this* repository — the layer
map, which rule families run, where the baseline lives, which modules
count as dtype/numerical hot paths — lives in pyproject so the tool
itself stays repository-agnostic.

Parsing uses :mod:`tomllib` where available (Python >= 3.11) and falls
back to a deliberately minimal TOML-subset reader on 3.9/3.10 so the
tool has zero third-party dependencies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from tools.reprolint.findings import Severity, parse_severity

try:  # Python >= 3.11
    import tomllib as _toml
except ModuleNotFoundError:  # pragma: no cover - exercised on 3.9/3.10 CI
    _toml = None


#: Default layer map: lower number = lower layer; imports may only point
#: at the same or a lower layer.  The bare ``repro`` entry is the
#: package aggregator (``repro/__init__.py``) and also the longest-prefix
#: fallback for any *unmapped* submodule, so forgetting to classify a new
#: module makes importing it a violation instead of a silent pass.
DEFAULT_LAYERS: Dict[str, int] = {
    "repro": 99,
    "repro.exceptions": 0,
    "repro.utils": 0,
    "repro.obs": 0,
    "repro.backend": 0,
    "repro.nn": 1,
    "repro.models": 1,
    "repro.datasets": 1,
    "repro.core": 2,
    "repro.fl": 3,
    "repro.cli": 4,
    "repro.analysis": 4,
    "repro.viz": 4,
    "repro.__main__": 4,
}

DEFAULT_DTYPE_MODULES = ["repro.nn"]
DEFAULT_NUMERIC_MODULES = [
    "repro.nn.losses",
    "repro.core.proximal",
    "repro.core.estimators",
    "repro.core.local",
    "repro.models",
]

#: Modules allowed to call ``numpy.random.default_rng`` directly: the
#: single blessed origin of every Generator lineage (RL600).
DEFAULT_RNG_MODULES = ["repro.utils.rng"]

#: Factory functions whose results carry the blessed lineage.
DEFAULT_RNG_FACTORIES = [
    "as_generator",
    "spawn_generators",
    "spawn_seeds",
    "derive_generator",
]

#: FedProxVR-family constructors/drivers whose ``beta``/``mu``/``tau``
#: keywords RL601 tracks through dataflow.
DEFAULT_DRIVER_CALLABLES = [
    "FederatedRunConfig",
    "run_federated",
    "make_local_solver",
    "run_fsvrg",
    "random_search",
    "compare_algorithms",
]

#: ``repro.core.theory`` entry points that validate hyperparameters at
#: runtime; passing a literal through one counts as a bound check.
DEFAULT_THEORY_CHECKS = [
    "lemma1_feasible",
    "tau_lower_bound",
    "tau_upper_bound_sarah",
    "tau_upper_bound_svrg",
    "beta_min",
    "tau_star_sarah",
    "theta_from_beta",
    "federated_factor",
    "global_iterations_required",
    "stationarity_bound",
]

#: repro.utils.validation helpers that prove their ``value`` argument
#: strictly positive (unless relaxed via ``strict=False``/``minimum<=0``).
DEFAULT_POSITIVE_CHECKS = [
    "check_positive",
    "check_positive_int",
]

#: Hot-path roots for RL903: any function reachable from one of these in
#: the project call graph counts as hot, so allocations in its loops are
#: per-round/per-step costs.  Bare names match any module.
DEFAULT_HOT_PATH_ROOTS = [
    "solve_cohort",
    "solve",
    "gradient_stack",
    "im2col",
    "col2im",
    "_gather_minibatches",
    "run_round",
    "forward",
    "backward",
]

ALL_FAMILIES = (
    "layering", "rng", "dtype", "safety", "theory", "provenance", "hygiene",
    "concurrency", "arrays",
)


@dataclass
class LintConfig:
    """Resolved reprolint configuration."""

    root: Path = field(default_factory=Path.cwd)
    src_root: str = "src"
    layers: Dict[str, int] = field(default_factory=lambda: dict(DEFAULT_LAYERS))
    enabled_families: List[str] = field(default_factory=lambda: list(ALL_FAMILIES))
    disabled_rules: List[str] = field(default_factory=list)
    baseline: str = "tools/reprolint/baseline.json"
    dtype_modules: List[str] = field(default_factory=lambda: list(DEFAULT_DTYPE_MODULES))
    numeric_modules: List[str] = field(
        default_factory=lambda: list(DEFAULT_NUMERIC_MODULES)
    )
    rng_modules: List[str] = field(default_factory=lambda: list(DEFAULT_RNG_MODULES))
    rng_factories: List[str] = field(
        default_factory=lambda: list(DEFAULT_RNG_FACTORIES)
    )
    driver_callables: List[str] = field(
        default_factory=lambda: list(DEFAULT_DRIVER_CALLABLES)
    )
    theory_check_functions: List[str] = field(
        default_factory=lambda: list(DEFAULT_THEORY_CHECKS)
    )
    positive_check_functions: List[str] = field(
        default_factory=lambda: list(DEFAULT_POSITIVE_CHECKS)
    )
    hot_path_roots: List[str] = field(
        default_factory=lambda: list(DEFAULT_HOT_PATH_ROOTS)
    )
    severity_overrides: Dict[str, Severity] = field(default_factory=dict)

    def baseline_path(self) -> Path:
        p = Path(self.baseline)
        return p if p.is_absolute() else self.root / p

    def layer_of(self, module: str) -> Optional[int]:
        """Longest-prefix layer lookup; ``None`` for unmapped modules."""
        parts = module.split(".")
        for i in range(len(parts), 0, -1):
            prefix = ".".join(parts[:i])
            if prefix in self.layers:
                return self.layers[prefix]
        return None

    def module_matches(self, module: Optional[str], prefixes: List[str]) -> bool:
        if module is None:
            return False
        return any(
            module == p or module.startswith(p + ".") for p in prefixes
        )

    def rule_enabled(self, rule_id: str, family: str) -> bool:
        return family in self.enabled_families and rule_id not in self.disabled_rules

    def severity_for(self, rule_id: str, default: Severity) -> Severity:
        return self.severity_overrides.get(rule_id, default)


# ---------------------------------------------------------------------------
# TOML loading
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[(?P<name>[^\]]+)\]\s*$")
_KEY_RE = re.compile(
    r"""^(?P<key>[A-Za-z0-9_\-]+|"[^"]+"|'[^']+')\s*=\s*(?P<value>.+)$"""
)


def _parse_scalar(text: str):
    text = text.strip()
    if text.startswith('"') and text.endswith('"'):
        return text[1:-1]
    if text.startswith("'") and text.endswith("'"):
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    raise ValueError(f"unsupported TOML value: {text!r}")


def _parse_minimal_toml(text: str) -> Dict[str, object]:
    """Parse the TOML subset reprolint's own configuration uses.

    Supports ``[dotted.section]`` headers and ``key = value`` lines where
    the value is a string, number, boolean, or a single-line array of
    those.  This is NOT a general TOML parser; it exists only so Python
    3.9/3.10 (no :mod:`tomllib`) can read ``[tool.reprolint]`` without a
    third-party dependency.
    """
    data: Dict[str, object] = {}
    current = data
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            current = data
            for part in m.group("name").split("."):
                part = part.strip().strip('"').strip("'")
                current = current.setdefault(part, {})  # type: ignore[assignment]
            continue
        m = _KEY_RE.match(line)
        if not m:
            continue  # multi-line constructs: out of scope for the fallback
        key = m.group("key").strip().strip('"').strip("'")
        value = m.group("value").split("#")[0].strip() if not (
            m.group("value").strip().startswith('"')
            or m.group("value").strip().startswith("'")
            or m.group("value").strip().startswith("[")
        ) else m.group("value").strip()
        if value.startswith("["):
            inner = value.strip()
            if not inner.endswith("]"):
                continue  # multi-line array: unsupported in the fallback
            body = inner[1:-1].strip()
            items = []
            if body:
                for chunk in re.split(r",(?=(?:[^\"']*[\"'][^\"']*[\"'])*[^\"']*$)", body):
                    chunk = chunk.strip()
                    if chunk:
                        items.append(_parse_scalar(chunk))
            current[key] = items
        else:
            current[key] = _parse_scalar(value)
    return data


def _load_toml(path: Path) -> Dict[str, object]:
    text = path.read_text(encoding="utf-8")
    if _toml is not None:
        return _toml.loads(text)
    return _parse_minimal_toml(text)


def load_config(pyproject: Optional[Path] = None) -> LintConfig:
    """Build a :class:`LintConfig` from ``[tool.reprolint]``.

    Missing file or missing section yields the built-in defaults with
    ``root`` set to the pyproject's directory (or the CWD).
    """
    cfg = LintConfig()
    if pyproject is None:
        pyproject = Path.cwd() / "pyproject.toml"
    pyproject = Path(pyproject)
    if not pyproject.is_file():
        return cfg
    cfg.root = pyproject.resolve().parent
    data = _load_toml(pyproject)
    section = data.get("tool", {}).get("reprolint", {})  # type: ignore[union-attr]
    if not isinstance(section, dict):
        return cfg

    if "src-root" in section:
        cfg.src_root = str(section["src-root"])
    if "baseline" in section:
        cfg.baseline = str(section["baseline"])
    if "families" in section:
        cfg.enabled_families = [str(v) for v in section["families"]]
    if "disable" in section:
        cfg.disabled_rules = [str(v) for v in section["disable"]]
    if "dtype-modules" in section:
        cfg.dtype_modules = [str(v) for v in section["dtype-modules"]]
    if "numeric-modules" in section:
        cfg.numeric_modules = [str(v) for v in section["numeric-modules"]]
    if "rng-modules" in section:
        cfg.rng_modules = [str(v) for v in section["rng-modules"]]
    if "rng-factories" in section:
        cfg.rng_factories = [str(v) for v in section["rng-factories"]]
    if "driver-callables" in section:
        cfg.driver_callables = [str(v) for v in section["driver-callables"]]
    if "theory-check-functions" in section:
        cfg.theory_check_functions = [
            str(v) for v in section["theory-check-functions"]
        ]
    if "positive-check-functions" in section:
        cfg.positive_check_functions = [
            str(v) for v in section["positive-check-functions"]
        ]
    if "hot-path-roots" in section:
        cfg.hot_path_roots = [str(v) for v in section["hot-path-roots"]]
    layers = section.get("layers")
    if isinstance(layers, dict) and layers:
        cfg.layers = {str(k): int(v) for k, v in layers.items()}
    severity = section.get("severity")
    if isinstance(severity, dict):
        cfg.severity_overrides = {
            str(k): parse_severity(str(v)) for k, v in severity.items()
        }
    return cfg
