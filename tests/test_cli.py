import csv
import json
import re

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from procure.cli import main
from procure.instances import (
    InstanceFormatError,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
    gen_concave_additive,
)
from procure.mech_subadditive import run_m_rand

from corpora import greedy_nonmonotone_instance


@pytest.fixture
def runner():
    return CliRunner()


def _generate(runner, tmp_path, name, *args):
    path = tmp_path / name
    result = runner.invoke(main, ["generate", "--out", str(path), *args])
    assert result.exit_code == 0, result.output
    return path


def test_generate_deterministic(runner, tmp_path):
    a = _generate(runner, tmp_path, "a.json", "--family", "concave-additive", "--seed", "7")
    b = _generate(runner, tmp_path, "b.json", "--family", "concave-additive", "--seed", "7")
    assert a.read_bytes() == b.read_bytes()
    c = _generate(runner, tmp_path, "c.json", "--family", "concave-additive", "--seed", "8")
    assert a.read_bytes() != c.read_bytes()


def test_generate_adversarial(runner, tmp_path):
    path = _generate(
        runner, tmp_path, "adv.json", "--family", "adversarial",
        "--n", "8", "--k", "8", "--budget", "8",
    )
    inst, _ = load_instance(path)
    assert inst.costs == (1,)
    assert inst.total_units == 8


def test_generate_explicit_subadditive(runner, tmp_path):
    from procure.valuations import classify

    path = _generate(
        runner, tmp_path, "sub.json", "--family", "explicit-subadditive",
        "--seed", "1",
    )
    inst, _ = load_instance(path)
    assert "subadditive" in classify(inst.valuation, inst.units)


def test_instance_file_round_trip(tmp_path):
    from procure.instances import gen_bounded_knapsack, gen_symmetric

    cases = [gen_concave_additive(s) for s in (1, 2, 3)]
    cases += [gen_bounded_knapsack(4), gen_symmetric(5)]
    for inst in cases:
        text = serialize_instance(inst)
        parsed, bids = parse_instance(text)
        assert bids is None
        assert serialize_instance(parsed) == text


def test_instance_file_round_trip_explicit():
    inst = greedy_nonmonotone_instance()
    text = serialize_instance(inst, bids=inst.costs)
    parsed, bids = parse_instance(text)
    assert bids == inst.costs
    assert serialize_instance(parsed, bids) == text


def _malformed(edit):
    obj = json.loads(serialize_instance(greedy_nonmonotone_instance()))
    edit(obj)
    return json.dumps(obj)


def _valued(valuation, units=1):
    return json.dumps({
        "version": "1", "budget": "4",
        "sellers": [{"units": units, "cost": "1"}],
        "valuation": valuation,
    })


# Malformed instance files, each with the start of the error it must raise,
# which names the bad JSON path.
_MALFORMED_INPUTS = {
    "bool-units": (
        _malformed(lambda o: o["sellers"][0].update(units=True)),
        r"^\$\.sellers\[0\]\.units: expected int, got bool",
    ),
    "number-bid": (
        _malformed(lambda o: o.update(bids=[1, "1", "1"])),
        r"^\$\.bids\[0\]: ",
    ),
    "number-table-value": (
        _malformed(lambda o: o["valuation"]["table"][1].update(value=10)),
        r"^\$\.valuation: ",
    ),
    "number-margin": (
        _valued({"type": "concave_additive", "margins": [[3]]}),
        r"^\$\.valuation: ",
    ),
    "string-margins": (
        _valued({"type": "symmetric", "margins": "12"}, units=2),
        r"^\$\.valuation: ",
    ),
    "string-values": (
        _valued({"type": "bounded_knapsack", "values": "5"}),
        r"^\$\.valuation: ",
    ),
    "string-margin-list": (
        _valued({"type": "concave_additive", "margins": ["65"]}, units=2),
        r"^\$\.valuation: ",
    ),
    "bool-cap": (
        _malformed(lambda o: o["valuation"].update(caps=[True, 2, 2])),
        r"^\$\.valuation: ",
    ),
    "float-cap": (
        _malformed(lambda o: o["valuation"].update(caps=[1.5, 2, 2])),
        r"^\$\.valuation: ",
    ),
    "bool-alloc": (
        _malformed(lambda o: o["valuation"]["table"][-1].update(alloc=[True, 2, 2])),
        r"^\$\.valuation: ",
    ),
    "deep-nesting": ("[" * 100000, r"^\$: "),
    "huge-units": (
        _valued({"type": "bounded_knapsack", "values": ["1"]}, units=10**12),
        r"^\$\.sellers: 1000000000000 units in total exceed the limit",
    ),
    "zero-budget": (
        _malformed(lambda o: o.update(budget="0")),
        r"^\$\.budget: budget must be positive",
    ),
    "negative-budget": (
        _malformed(lambda o: o.update(budget="-7/2")),
        r"^\$\.budget: budget must be positive",
    ),
    "no-sellers": (
        _malformed(lambda o: o.update(sellers=[])),
        r"^\$\.sellers: instance needs at least one seller",
    ),
    "huge-budget": (
        _malformed(lambda o: o.update(budget="1" + "0" * 400)),
        r"^\$\.budget: rational literal too large",
    ),
    # Python refuses to convert integers of over 4300 digits.
    "huge-json-number": (
        _valued({"type": "bounded_knapsack", "values": ["1"]}, units=7).replace(
            '"units": 7', '"units": ' + "9" * 5000
        ),
        r"^\$: not valid JSON",
    ),
}


def test_parse_errors_name_path():
    with pytest.raises(InstanceFormatError, match=r"\$\.budget"):
        parse_instance(json.dumps({"version": "1", "budget": "x",
                                   "sellers": [], "valuation": {}}))
    with pytest.raises(InstanceFormatError, match=r"sellers\[0\]"):
        parse_instance(json.dumps({
            "version": "1", "budget": "4",
            "sellers": [{"units": "two", "cost": "1"}],
            "valuation": {"type": "bounded_knapsack", "values": ["1"]},
        }))
    with pytest.raises(InstanceFormatError, match="version"):
        parse_instance(json.dumps({"version": "9", "budget": "4",
                                   "sellers": [], "valuation": {}}))
    inst = greedy_nonmonotone_instance()
    obj = json.loads(serialize_instance(inst))
    obj["bids"] = ["-1", "3", "1"]
    with pytest.raises(InstanceFormatError, match=r"\$\.bids\[0\]"):
        parse_instance(json.dumps(obj))
    for text, path in _MALFORMED_INPUTS.values():
        with pytest.raises(InstanceFormatError, match=path):
            parse_instance(text)


def test_run_replay_matches_library(runner, tmp_path):
    inst = greedy_nonmonotone_instance()
    path = tmp_path / "ex.json"
    save_instance(path, inst)
    result = runner.invoke(
        main,
        ["run", str(path), "--mechanism", "m_rand", "--scenario", "rand:0b101"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    direct = run_m_rand(inst, None, (0, 2))
    assert tuple(payload["allocation"]) == direct.allocation
    assert payload["scenario"] == "rand:0b101"
    assert payload["budget_feasible"] is True


def test_run_sampled_scenario_deterministic(runner, tmp_path):
    inst = gen_concave_additive(21)
    path = tmp_path / "c.json"
    save_instance(path, inst)
    outs = [
        runner.invoke(
            main, ["run", str(path), "--mechanism", "m_add", "--seed", "5"]
        ).output
        for _ in range(2)
    ]
    assert outs[0] == outs[1]


def test_run_star_scenario_buys_top_first_margin(runner, tmp_path):
    from procure.mech_additive import star_seller

    inst = gen_concave_additive(44)
    path = tmp_path / "c.json"
    save_instance(path, inst)
    result = runner.invoke(
        main, ["run", str(path), "--mechanism", "m_add", "--scenario", "star"]
    )
    payload = json.loads(result.output)
    star = star_seller(inst)
    expect = [1 if i == star else 0 for i in range(inst.m)]
    assert payload["allocation"] == expect
    assert payload["payments"][star] == str(inst.budget)


def test_verify_m_sub_on_explicit_table(runner, tmp_path):
    from procure.instances import gen_explicit_subadditive

    inst = gen_explicit_subadditive(51)
    path = tmp_path / "sub.json"
    save_instance(path, inst)
    result = runner.invoke(
        main,
        ["verify", str(path), "--mechanism", "m_sub", "--grid", "8"],
    )
    assert result.exit_code == 0, result.output
    assert "m_sub: ok" in result.output


def test_run_m_sub_skip(runner, tmp_path):
    inst = gen_concave_additive(22)
    path = tmp_path / "c.json"
    save_instance(path, inst)
    result = runner.invoke(
        main,
        ["run", str(path), "--mechanism", "m_sub", "--scenario", "one:skip"],
    )
    payload = json.loads(result.output)
    assert payload["total_payment"] == "0"
    assert all(a == 0 for a in payload["allocation"])


def test_verify_exit_codes(runner, tmp_path):
    inst = gen_concave_additive(31, max_sellers=2, max_total_units=4)
    path = tmp_path / "ok.json"
    save_instance(path, inst)
    good = runner.invoke(
        main,
        ["verify", str(path), "--mechanism", "m_add", "--grid", "16",
         "--out", str(tmp_path / "rep")],
    )
    assert good.exit_code == 0, good.output
    assert (tmp_path / "rep" / "reports.jsonl").exists()
    with open(tmp_path / "rep" / "summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance", "mechanism", "ratio", "bound",
                       "pass_count", "fail_count"]
    assert len(rows) == 2

    broken = runner.invoke(
        main,
        ["verify", str(path), "--mechanism", "m_add_firstprice", "--grid", "16"],
    )
    assert broken.exit_code == 1


def test_verify_generator_spec(runner):
    result = runner.invoke(
        main,
        ["verify", "gen:concave-additive:6:1000", "--mechanism", "m_add",
         "--grid", "16"],
    )
    assert result.exit_code == 0, result.output
    assert result.output.count("m_add: ok") == 6
    bad = runner.invoke(main, ["verify", "gen:nope:2:0"])
    assert bad.exit_code != 0


# Counts below one, an empty range of n, and an n above the sweep's ceiling
# are usage errors that write nothing.
@pytest.mark.parametrize(
    "args",
    [["verify", "gen:concave-additive:-3:5"], ["verify", "gen:symmetric:0:5"],
     ["ratio-sweep", "--n-min", "0"], ["ratio-sweep", "--n-max", "-1"],
     ["verify", "gen:concave-additive:1:5", "--grid", "0"],
     ["verify", "gen:concave-additive:1:5", "--grid", "-4"],
     ["ratio-sweep", "--n-min", "10", "--n-max", "4"],
     ["ratio-sweep", "--n-max", "10001"], ["ratio-sweep", "--n-max", "401"]],
)
def test_counts_below_one_are_usage_errors(runner, tmp_path, args):
    out = tmp_path / "out"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert not out.exists()


def test_generate_above_total_units_limit_is_an_error(runner):
    result = runner.invoke(main, ["generate", "--family", "adversarial", "--n", "10001"])
    assert result.exit_code == 1, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    assert "exceed the limit 10000" in lines[0]


def test_verify_skips_inapplicable(runner, tmp_path):
    inst = gen_concave_additive(33, max_sellers=2, max_total_units=4)
    path = tmp_path / "c.json"
    save_instance(path, inst)
    result = runner.invoke(
        main, ["verify", str(path), "--mechanism", "m_sym", "--grid", "8"]
    )
    assert result.exit_code == 0
    assert "skip" in result.output


# ``ratio-sweep --n-min 4 --n-max 8`` as written before the optimum was
# shared between the two mechanisms of each n.
RATIO_SWEEP_4_8 = """\
n,mechanism,expected_value,optimum,ratio,greedy_lottery_bound,acceptance_factor
4,m_add,1.3381195683928104,4,2.9892694901729318,9.545177444479563,0.0078125
4,m_sub,1.0881195683928104,4,3.676066598000931,9.545177444479563,0.0078125
5,m_add,1.4580607333431375,5,3.4292124365325107,10.437751649736402,0.008178300843036437
5,m_sub,1.2080607333431375,5,4.13886476233956,10.437751649736402,0.008178300843036437
6,m_add,1.5745911433514452,6,3.8105129863929466,11.16703787691222,0.008281934406469611
6,m_sub,1.3245911433514452,6,4.5296996209856575,11.16703787691222,0.008281934406469611
7,m_add,1.6880878312335392,7,4.14670366700344,11.783640596221254,0.008288559819786216
7,m_sub,1.4380878312335392,7,4.867574739155991,11.783640596221254,0.008288559819786216
8,m_add,1.7989368188551484,8,4.447071134544479,12.317766166719343,0.008255013024589355
8,m_sub,1.5489368188551484,8,5.164833001976779,12.317766166719343,0.008255013024589355
"""


def test_ratio_sweep(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    result = runner.invoke(
        main, ["ratio-sweep", "--n-min", "4", "--n-max", "8", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == RATIO_SWEEP_4_8.replace("\n", "\r\n").encode()


# Pinned replay values: each id's exact scenario list as (branch,
# float.hex(probability)) and the branches `procure run --seed s` samples
# for s in 0..9.  Changing any of them breaks recorded replays.
def _wide17():
    from procure.core import Instance, Rat, Seller
    from procure.valuations import BoundedKnapsack

    return Instance(
        tuple(Seller(1 + i % 2, Rat(1 + i % 3)) for i in range(17)),
        Rat(9),
        BoundedKnapsack(tuple(Rat(1 + i % 4) for i in range(17))),
    )


def _pin_instance(name):
    from procure.instances import gen_explicit_subadditive, gen_symmetric

    return {
        "concave21": lambda: gen_concave_additive(21),
        "symmetric5": lambda: gen_symmetric(5),
        "explicit51": lambda: gen_explicit_subadditive(51),
        "wide17": _wide17,
    }[name]()


def _rand_pins(m, exponent):
    return [
        (f"rand:{mask:#b}", f"0x1.0000000000000p-{exponent}")
        for mask in range(1 << m)
    ]


_ADD21 = [("greedy", "0x1.886bf2fbaa35dp-3"), ("star", "0x1.0000000000000p-1"),
          ("bot", "0x1.3bca06822ae52p-2")]
PINNED_SCENARIOS = {
    ("concave21", "m_add"): _ADD21,
    ("concave21", "m_add_firstprice"): _ADD21,
    ("concave21", "m_one"): [("fire", "0x1.886bf2fbaa35dp-2"),
                             ("skip", "0x1.3bca06822ae52p-1")],
    ("concave21", "m_rand"): _rand_pins(2, 2),
    ("concave21", "m_sub"): [("one:fire", "0x1.886bf2fbaa35dp-3"),
                             ("one:skip", "0x1.3bca06822ae52p-2")]
    + _rand_pins(2, 3),
    ("symmetric5", "m_sym"): [("greedy", "0x1.2d5cef3e7f634p-3"),
                              ("star", "0x1.0000000000000p-1"),
                              ("bot", "0x1.69518860c04e6p-2")],
    ("symmetric5", "m_one"): [("fire", "0x1.2d5cef3e7f634p-2"),
                              ("skip", "0x1.69518860c04e6p-1")],
    ("symmetric5", "m_rand"): _rand_pins(5, 5),
    ("symmetric5", "m_sub"): [("one:fire", "0x1.2d5cef3e7f634p-3"),
                              ("one:skip", "0x1.69518860c04e6p-2")]
    + _rand_pins(5, 6),
    ("explicit51", "m_one"): [("fire", "0x1.2e653c1293b31p-1"),
                              ("skip", "0x1.a33587dad899ep-2")],
    ("explicit51", "m_rand"): _rand_pins(2, 2),
    ("explicit51", "m_sub"): [("one:fire", "0x1.2e653c1293b31p-2"),
                              ("one:skip", "0x1.a33587dad899ep-3")]
    + _rand_pins(2, 3),
}
_RAND2 = "0b11 0b0 0b11 0b0 0b0 0b10 0b11 0b1 0b0 0b1"
_SUB2 = "one:skip 0b11 one:skip 0b10 0b0 one:skip one:skip 0b0 0b11 0b1"
PINNED_SAMPLES = {
    ("concave21", "m_add"): "bot greedy bot star star star bot star star star",
    ("concave21", "m_add_firstprice"):
        "bot greedy bot star star star bot star star star",
    ("concave21", "m_one"): "skip fire skip fire fire skip skip fire fire skip",
    ("concave21", "m_rand"): _RAND2,
    ("concave21", "m_sub"): _SUB2,
    ("symmetric5", "m_sym"): "bot greedy bot star star star bot star star star",
    ("symmetric5", "m_one"): "skip fire skip fire fire skip skip skip fire skip",
    ("symmetric5", "m_rand"): "0b11011 0b100 0b11110 0b111 0b111 0b10011 "
                              "0b11001 0b1010 0b111 0b1110",
    ("symmetric5", "m_sub"): "one:skip 0b11011 one:skip 0b10001 0b11 one:skip "
                             "one:skip 0b100 0b11110 0b1011",
    ("explicit51", "m_one"): "skip fire skip fire fire skip skip fire fire fire",
    ("explicit51", "m_rand"): _RAND2,
    ("explicit51", "m_sub"): _SUB2,
    ("wide17", "m_rand"): "0b11011000001011000 0b100010011001011 "
                          "0b11110100101111101 0b111100111010110 "
                          "0b111100011011011 0b10011111011101100 "
                          "0b11001011000110000 0b1010010111001101 "
                          "0b111010000010010 0b1110110100001111",
    ("wide17", "m_sub"): "one:skip 0b11011000111100010 one:skip "
                         "0b10001011010100101 0b11010011010010 one:skip "
                         "one:skip 0b100110100111100 0b11110110010110001 "
                         "0b1011111100100010",
}


def _pinned_branches(text):
    # Sample-group masks are pinned without their "rand:" prefix.
    return [f"rand:{b}" if b.startswith("0b") else b for b in text.split()]


@pytest.mark.parametrize("name,mech", sorted(PINNED_SAMPLES))
def test_run_seed_replay_is_pinned(runner, tmp_path, name, mech):
    from procure.core import SearchSpaceTooLarge
    from procure.verify import MECHANISMS

    inst = _pin_instance(name)
    if name == "wide17":
        with pytest.raises(SearchSpaceTooLarge):
            MECHANISMS[mech].scenarios(inst)
    else:
        scens = MECHANISMS[mech].scenarios(inst)
        assert [(s.branch, float.hex(s.probability)) for s in scens] == (
            PINNED_SCENARIOS[name, mech]
        )
    path = tmp_path / "pin.json"
    save_instance(path, inst)
    sampled = []
    for seed in range(10):
        result = runner.invoke(
            main, ["run", str(path), "--mechanism", mech, "--seed", str(seed)]
        )
        assert result.exit_code == 0, result.output
        sampled.append(json.loads(result.output)["scenario"])
    assert sampled == _pinned_branches(PINNED_SAMPLES[name, mech])


def _cli_error(runner, *args):
    result = runner.invoke(main, list(args))
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    return lines[0]


def _run_error(runner, path, *args):
    return _cli_error(runner, "run", str(path), *args)


@pytest.mark.parametrize("mech", ["m_add", "m_sym", "m_add_firstprice"])
def test_run_outside_valuation_class_is_an_error(runner, tmp_path, mech):
    from procure.instances import gen_explicit_subadditive

    path = tmp_path / "sub.json"
    save_instance(path, gen_explicit_subadditive(51))
    for seed in range(4):
        line = _run_error(runner, path, "--mechanism", mech, "--seed", str(seed))
        assert "requires" in line
    line = _run_error(runner, path, "--mechanism", mech, "--scenario", "bot")
    assert "requires" in line


@pytest.mark.parametrize(
    "mech,scenario",
    [("m_add", "nope"), ("m_one", "one:fire"), ("m_rand", "rand:0b1000"),
     ("m_sub", "rand:0b1000"), ("m_rand", "rand:xyz")],
)
def test_run_bad_scenario_is_an_error(runner, tmp_path, mech, scenario):
    path = tmp_path / "c.json"
    save_instance(path, gen_concave_additive(21))
    _run_error(runner, path, "--mechanism", mech, "--scenario", scenario)


def test_run_negative_bid_is_an_error(runner, tmp_path):
    inst = gen_concave_additive(21)
    obj = json.loads(serialize_instance(inst, bids=inst.costs))
    obj["bids"][0] = "-1"
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(obj))
    line = _run_error(runner, path, "--mechanism", "m_add", "--scenario", "greedy")
    assert "$.bids[0]" in line


@pytest.mark.parametrize("case", sorted(_MALFORMED_INPUTS))
def test_run_malformed_input_is_an_error(runner, tmp_path, case):
    text, path_re = _MALFORMED_INPUTS[case]
    path = tmp_path / "bad.json"
    path.write_text(text)
    line = _run_error(runner, path, "--mechanism", "m_add")
    assert re.match(path_re, line.removeprefix(f"Error: {path}: ")), line


@pytest.mark.parametrize("case", sorted(_MALFORMED_INPUTS))
def test_verify_malformed_input_is_an_error(runner, tmp_path, case):
    text, path_re = _MALFORMED_INPUTS[case]
    path = tmp_path / "bad.json"
    path.write_text(text)
    line = _cli_error(runner, "verify", str(path), "--mechanism", "m_add")
    assert re.match(path_re, line.removeprefix(f"Error: {path}: ")), line


@pytest.mark.parametrize("command", ["run", "verify"])
def test_non_utf8_input_is_an_error(runner, tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    line = _cli_error(runner, command, str(path), "--mechanism", "m_add")
    assert line.startswith(f"Error: {path}: $: not valid UTF-8"), line


def _json_paths(obj, path=()):
    """Every path into a JSON value, the root () included."""
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _json_paths(value, (*path, key))


def _replaced(obj, path, value):
    if not path:
        return value
    obj[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return obj


# Valid instance files, with bids, into which one field at a time is fuzzed.
_FUZZ_BASES = tuple(
    serialize_instance(inst, bids=inst.costs)
    for inst in (gen_concave_additive(1), greedy_nonmonotone_instance())
)
_FUZZ_STRINGS = ("0", "-1", "1/0", "1/2", "-3/4", "01", " 2", "x", "", "9" * 400,
                 "-" + "9" * 400, "1/" + "9" * 400, "explicit", "symmetric")


def _json_containers(inner):
    keys = st.sampled_from(("type", "units", "cost", "alloc", "value"))
    return st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3)


_FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(_FUZZ_STRINGS) | st.text(max_size=4),
    _json_containers,
    max_leaves=5,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_parse_instance_fuzz(data):
    obj = json.loads(data.draw(st.sampled_from(_FUZZ_BASES)))
    paths = list(_json_paths(obj))
    # Pick the top-level field first, so the long valuation does not crowd
    # out the short fields.
    top = data.draw(st.sampled_from(sorted({p[:1] for p in paths}, key=str)))
    path = data.draw(st.sampled_from([p for p in paths if p[:1] == top]))
    text = json.dumps(_replaced(obj, path, data.draw(_FUZZ_VALUES)))
    try:
        parse_instance(text)
    except InstanceFormatError:
        pass
