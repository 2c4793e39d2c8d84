"""CLI contract: exit codes, JSON shape, determinism, corpus runner."""

import json
import math
import time

import pytest

from jaccoord import InputTooLarge, Rat, parse_poly
from jaccoord.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


class TestCheck:
    def test_coordinate_exit_zero(self, capsys):
        code, doc, _ = run_json(capsys, "check", "y + x^3")
        assert code == 0
        assert doc["outcome"] == "coordinate"
        assert doc["jacobian"] == "-1"

    def test_not_coordinate_exit_two(self, capsys):
        code, doc, _ = run_json(capsys, "check", "x*y")
        assert code == 2
        assert doc["outcome"] == "not_coordinate"
        assert doc["obstruction"]["kind"] == "PolygonNotTriangle"

    def test_parse_error_exit_one(self, capsys):
        code, out, err = run(capsys, "check", "x +")
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "ParseError"

    def test_file_input(self, capsys, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("y + x^3\n", encoding="utf-8")
        code, doc, _ = run_json(capsys, "check", str(f))
        assert code == 0
        assert doc["outcome"] == "coordinate"

    def test_internal_error_is_json(self, capsys, monkeypatch):
        from jaccoord import cli

        def fault(text):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "parse_poly", fault)
        code, out, err = run(capsys, "check", "y + x^3")
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "InternalError"
        assert error["detail"].startswith("RecursionError: maximum recursion depth")

    def test_deep_nesting_is_input_too_large(self, capsys, tmp_path):
        from jaccoord.qpoly import MAX_NESTING

        f = tmp_path / "deep.txt"
        f.write_text("(" * 3000 + "x" + ")" * 3000 + "\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(f))
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "InputTooLarge"
        depth = MAX_NESTING
        code, doc, _ = run_json(capsys, "check", "(" * depth + "y + x^3" + ")" * depth)
        assert code == 0
        assert doc["outcome"] == "coordinate"

    def test_power_budget_is_input_too_large(self, capsys):
        # refused before expansion; expanding it runs for minutes
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "(x+y+1)^400")
        assert time.perf_counter() - start < 5
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "InputTooLarge"
        from jaccoord.qpoly import MAX_POWER_POINTS

        assert (49 + 1) ** 2 == MAX_POWER_POINTS
        code, doc, _ = run_json(capsys, "polygon", "(x+y+1)^49")
        assert code == 0
        assert doc["vertices"] == [[0, 0], [49, 0], [0, 49]]
        code, out, err = run(capsys, "polygon", "(x+y+1)^50")
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "InputTooLarge"

    def test_power_digit_budget_is_input_too_large(self, capsys):
        # expanding the first power takes about 20 s and gives coefficients
        # that Python refuses to print; a one-term base is budgeted too
        from jaccoord.qpoly import MAX_POWER_DIGITS

        big = "(" + "9" * 200 + "*x + " + "7" * 200 + "*y + 1/" + "3" * 100 + ")^49"
        for text in (big, "7^6000", "(" + "9" * 88 + "*x + y + 1)^49"):
            start = time.perf_counter()
            code, out, err = run(capsys, "check", "--", text)
            assert time.perf_counter() - start < 1
            assert code == 1 and out == ""
            error = json.loads(err)["error"]
            assert error["kind"] == "InputTooLarge" and f"more than {MAX_POWER_DIGITS}" in error["detail"]
        # 49 * 88 digits are refused above, 99 * 43 digits are expanded
        code, doc, _ = run_json(capsys, "polygon", "--", "(" + "9" * 42 + "8*x + 1)^99")
        assert code == 0
        assert doc["vertices"] == [[0, 0], [99, 0]]

    def test_product_digit_budget_is_input_too_large(self, capsys):
        # a product of digit runs within their budget is refused at its *
        # once log10(max(den_a den_b, |a|_1 |b|_1)) passes MAX_POWER_DIGITS,
        # before Python is asked to print its coefficients; half the budget
        # on each side is multiplied and certified
        from jaccoord.qpoly import MAX_POWER_DIGITS

        nines, half = "9" * 4000, "9" * (MAX_POWER_DIGITS // 2)
        refused = [  # (text, the offset of the refused *, digits)
            (nines + "*" + nines + "*x + y", 4000, 8000),
            ("x + (" + nines + "*x + 1)*(" + nines + "*y + 1)", 4012, 8000),
            ("x + 1/" + nines + "*y*(1/" + nines + ")", 4008, 8000),
            ("y - x*" + half + "*x*9" + half, 2158, MAX_POWER_DIGITS + 1),
        ]
        for text, at, digits in refused:
            start = time.perf_counter()
            code, out, err = run(capsys, "check", "--", text)
            assert time.perf_counter() - start < 1
            assert (code, out) == (1, "")
            assert json.loads(err)["error"] == {
                "kind": "InputTooLarge",
                "detail": f"product with coefficients of up to {digits} digits,"
                f" more than {MAX_POWER_DIGITS} (at position {at})",
            }
        code, doc, _ = run_json(capsys, "check", "--", half + "*" + half + "*x + y")
        assert code == 0 and doc["outcome"] == "coordinate"

    def test_digit_run_budget_is_input_too_large(self, capsys):
        # a coefficient, denominator or exponent, in a monomial or a lone
        # integer, of MAX_POWER_DIGITS digits parses; one digit more is
        # refused at the lexer, naming the budget and the run's offset
        from jaccoord.qpoly import MAX_POWER_DIGITS

        def texts(k):
            run = "7" * k
            return [
                (run + "*x + y", 0),
                ("x + 2/" + run + "*y", 6),
                ("y - x^" + run + "*y", 6),
                ("x^2*y^" + run + " + x", 6),
                ("x + y + " + run, 8),
                ("(x + y)^2 - 1/" + run, 14),
            ]

        for text, _ in texts(MAX_POWER_DIGITS):
            assert run(capsys, "polygon", "--", text)[0] == 0
        code, doc, _ = run_json(capsys, "check", "--", "7" * MAX_POWER_DIGITS + "*x + y")
        assert code == 0 and doc["outcome"] == "coordinate"
        for text, at in texts(MAX_POWER_DIGITS + 1):
            for command in ("check", "polygon"):
                code, out, err = run(capsys, command, "--", text)
                assert (code, out) == (1, "")
                assert json.loads(err)["error"] == {
                    "kind": "InputTooLarge",
                    "detail": f"number of {MAX_POWER_DIGITS + 1} digits, more than {MAX_POWER_DIGITS} (at position {at})",
                }

    def test_sum_digit_budget_is_input_too_large(self, capsys):
        # a sum is put over the lcm of its terms' denominators and refused at
        # the first token of the term that takes that lcm to
        # 10^MAX_POWER_DIGITS, on the canonical pass, in the grammar and
        # inside parentheses; a coefficient counts in lowest terms, so
        # 11/(11*2^(k-1)), that is 1/2^(k-1), parses on both paths
        from jaccoord.qpoly import MAX_POWER_DIGITS

        nines = "9" * 2500
        found = math.lcm(int(nines), int(nines + "7"))
        k = MAX_POWER_DIGITS
        top = 10 ** k
        refused = [  # (text, offset of the refused term, its lcm)
            ("1/" + nines + "*x + 1/" + nines + "7*x + y", 2507, found),
            ("1/" + nines + " * x + 1/" + nines + "7 * x + y", 2509, found),
            ("(1/" + nines + "*x + 1/" + nines + "7*x) + y", 2508, found),
            ("1/" + str(2 ** k) + "*x + 1/" + str(5 ** k) + "*y", len(str(2 ** k)) + 7, top),
            ("1/" + str(2 ** k) + "*x + 1/" + str(5 ** k) + " * y", len(str(2 ** k)) + 7, top),
        ]
        for text, at, lcm in refused:
            for command in ("check", "witness"):
                code, out, err = run(capsys, command, "--", text)
                assert (code, out) == (1, "")
                assert json.loads(err)["error"] == {
                    "kind": "InputTooLarge",
                    "detail": f"sum with a denominator of up to {math.ceil(lcm.bit_length() * math.log10(2))}"
                    f" digits, more than {MAX_POWER_DIGITS} (at position {at})",
                }
        two, five = str(2 ** (k - 1)), str(5 ** (k - 1))  # an lcm of exactly MAX_POWER_DIGITS digits
        for text in ("1/" + two + "*x + 1/" + five + "*y", "11/" + str(11 * 2 ** (k - 1)) + "*x + 1/" + five + "*y",
                     "11/" + str(11 * 2 ** (k - 1)) + " * x + 1/" + five + "*y"):
            code, doc, _ = run_json(capsys, "check", "--", text)
            assert code == 0 and doc["outcome"] == "coordinate"
            assert parse_poly(text).den == 10 ** (k - 1)

    def test_power_past_float_range_is_input_too_large(self, capsys):
        # an exponent past the range of a float is budgeted exactly: a base
        # whose numbers grow is refused at the exponent's offset, and a
        # monomial of unit coefficient parses, as its canonical spelling does
        from jaccoord.qpoly import MAX_POWER_DIGITS

        sevens = "7" * 400
        for command in ("check", "polygon"):
            code, out, err = run(capsys, command, "--", "(2*x)^" + sevens)
            assert (code, out) == (1, "")
            error = json.loads(err)["error"]
            assert error["kind"] == "InputTooLarge"
            assert error["detail"].endswith(f" digits, more than {MAX_POWER_DIGITS} (at position 6)")
        canonical = {
            "x^2*y ^ " + sevens + " + x": "x^2*y^" + sevens + " + x",
            "(x^2*y)^" + sevens + " + x": f"x^{2 * int(sevens)}*y^{sevens} + x",
        }
        for text, spelling in canonical.items():
            assert parse_poly(text) == parse_poly(spelling)
            assert run(capsys, "polygon", "--", text) == run(capsys, "polygon", "--", spelling)
            code, out, err = run(capsys, "check", "--", text)
            assert (code, out, json.loads(err)["error"]["kind"]) == (1, "", "InputTooLarge")

    def test_budget_past_a_printable_count_is_input_too_large(self, capsys):
        # a count of lattice points or of digits too long for Python to
        # print is named by its order, and the message still names the
        # bound and the exponent's offset
        from jaccoord.qpoly import MAX_POWER_DIGITS, MAX_POWER_POINTS

        nines, over = "9" * MAX_POWER_DIGITS, f"over 10^{MAX_POWER_DIGITS}"
        cases = {
            "(x+y)^" + nines: f"power with {over} lattice points, more than {MAX_POWER_POINTS} (at position 6)",
            "(10000000000*x)^" + nines:
                f"power with coefficients of {over} digits, more than {MAX_POWER_DIGITS} (at position 16)",
        }
        for text, detail in cases.items():
            code, out, err = run(capsys, "polygon", "--", text)
            assert (code, out) == (1, "")
            assert json.loads(err)["error"] == {"kind": "InputTooLarge", "detail": detail}

    def test_printed_number_budget_is_input_too_large(self, capsys):
        # rat_str refuses a numerator or denominator of more than
        # MAX_POWER_DIGITS digits, which Python would not print, and every
        # document is built before a byte is written: the witness of this
        # coordinate has a linear step with a 6,003-digit coefficient, and
        # its check document prints none
        from jaccoord.qpoly import MAX_POWER_DIGITS, rat_str

        text = "9" * 3000 + "*x + " + "7" * 3000 + "*y + 1/" + "7" * 3000
        code, doc, _ = run_json(capsys, "check", "--", text)
        assert code == 0 and doc["outcome"] == "coordinate"
        code, out, err = run(capsys, "witness", "--", text)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == {
            "kind": "InputTooLarge",
            "detail": f"number of more than {MAX_POWER_DIGITS} digits to print",
        }
        top = 10 ** MAX_POWER_DIGITS
        assert rat_str(Rat(1 - top, top - 1)) == "-1"
        assert rat_str(Rat(1 - top)) == "-" + "9" * MAX_POWER_DIGITS
        assert rat_str(Rat(1, top - 1)) == "1/" + "9" * MAX_POWER_DIGITS
        for big in (Rat(top), Rat(-top), Rat(1, top), Rat(top + 1, top)):
            with pytest.raises(InputTooLarge):
                rat_str(big)

    def test_product_budget_is_input_too_large(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "polygon", "(x+y+1)^49*(x+y+1)^49")
        assert time.perf_counter() - start < 5
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "InputTooLarge"
        code, doc, _ = run_json(capsys, "polygon", "(x+y+1)^24*(x+y+1)^24")
        assert code == 0
        assert doc["vertices"] == [[0, 0], [48, 0], [0, 48]]

    def test_sparse_product_is_not_budgeted(self, capsys):
        # a box of 4,002 lattice points, but only 2*2 term products
        text = "(x^2000 + 1)*(y + 1)"
        assert parse_poly(text) == parse_poly("x^2000*y + x^2000 + y + 1")
        code, doc, _ = run_json(capsys, "polygon", text)
        assert code == 0
        assert doc["vertices"] == [[0, 0], [2000, 0], [2000, 1], [0, 1]]

    def test_monomial_powers_are_not_budgeted(self, capsys):
        code, doc, _ = run_json(capsys, "polygon", "x^2000 + y^2000 + 1")
        assert code == 0
        assert doc["vertices"] == [[0, 0], [2000, 0], [0, 2000]]

    def test_degree_guard_is_input_too_large(self, capsys, monkeypatch):
        from jaccoord import coordinate

        monkeypatch.setattr(coordinate, "DEGREE_GUARD", 4)
        code, out, err = run(capsys, "check", "x + (y + x^2)^3")  # degx + degy = 9
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "InputTooLarge"


class TestWitness:
    def test_steps_and_complement(self, capsys):
        code, doc, _ = run_json(capsys, "witness", "y + x^3")
        assert code == 0
        kinds = [s["kind"] for s in doc["steps"]]
        assert kinds[0] == "TriangularY"
        assert doc["complement"] == "x"
        assert doc["jacobian"] == "-1"

    def test_obstruction_passthrough(self, capsys):
        code, doc, _ = run_json(capsys, "witness", "x^2 + y^3")
        assert code == 2
        ob = doc["obstruction"]
        assert ob["kind"] == "FaceExponentsBothExceedOne"
        assert (ob["p"], ob["q"]) == (2, 3)


class TestPolygon:
    def test_cusp_polygon(self, capsys):
        code, doc, _ = run_json(capsys, "polygon", "y^2 - x^3")
        assert code == 0
        assert doc["dim"] == 2
        assert doc["interior"] == 1
        assert doc["boundary"] == 6
        assert doc["twice_area"] == 6
        assert doc["triangle"] is True
        assert doc["face"] == {"C": "1", "a": "1", "m": 1, "p": 3, "q": 2}

    def test_segment(self, capsys):
        code, doc, _ = run_json(capsys, "polygon", "x*y - 1")
        assert doc["dim"] == 1
        assert doc["triangle"] is False
        assert doc["face"] is None

    def test_sparse_hypotenuse_of_huge_degree(self, capsys):
        # the face gate reads the first absent slot of x^n + y^n off the
        # face's own terms, so n = 10^9 costs no list of n + 1 slots
        n = 10 ** 9
        code, doc, _ = run_json(capsys, "polygon", f"x^{n} + y^{n} + 1")
        assert code == 0
        assert doc["vertices"] == [[0, 0], [n, 0], [0, n]]
        assert (doc["triangle"], doc["face"]) == (True, None)


class TestFibre:
    def test_report_fields(self, capsys):
        code, doc, _ = run_json(capsys, "fibre", "y^2 - x^3 - x", "--c", "1")
        assert code == 0
        assert doc["c"] == "1"
        assert doc["abs_factor_count"] == 1
        assert doc["genus"] == 1
        assert doc["branches_at_infinity"] == 1

    def test_unknown_encoding(self, capsys):
        code, doc, _ = run_json(capsys, "fibre", "x*y", "--c", "0")
        assert doc["genus"] == {"unknown": "Reducible"}

    def test_rational_c(self, capsys):
        # negative rationals need the --c=VALUE form
        code, doc, _ = run_json(capsys, "fibre", "y + x^2", "--c=-3/2")
        assert code == 0
        assert doc["c"] == "-3/2"

    def test_bad_rational(self, capsys):
        code, out, err = run(capsys, "fibre", "y + x^2", "--c", "zzz")
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "UsageError"


    def test_fibre_budget_is_input_too_large(self, capsys):
        # the Newton polygon of P - c is counted before any work: x^433 + y
        # has 435 lattice points, at the bound
        from jaccoord.fibre import MAX_FIBRE_POINTS

        assert MAX_FIBRE_POINTS == 435
        code, doc, _ = run_json(capsys, "fibre", "--c", "1/3", "--", "x^433 + y")
        assert code == 0 and doc["abs_factor_count"] == 1
        for text, points in (("x^434 + y", 436), ("x^3000*y + y^2 + 1", 3003), ("x^100000 + y", 100002)):
            start = time.perf_counter()
            code, out, err = run(capsys, "fibre", "--c", "1/3", "--", text)
            assert time.perf_counter() - start < 1
            assert (code, out) == (1, "")
            assert json.loads(err)["error"] == {
                "kind": "InputTooLarge",
                "detail": f"fibre polygon with {points} lattice points, more than {MAX_FIBRE_POINTS}",
            }


class TestScan:
    def test_scan_exit_zero_and_shape(self, capsys):
        code, doc, _ = run_json(capsys, "scan", "x*y", "--samples", "4")
        assert code == 0
        assert doc["verdict"]["outcome"] == "not_coordinate"
        assert doc["violation"]["kind"] == "ReducibleFibre"
        assert doc["violation"]["c"] == "0"
        assert doc["theorem_violation_suspected"] is False

    def test_samples_beyond_the_value_pool(self, capsys):
        # x + y has no special values, so all 51 values a/b (|a| <= 9,
        # 1 <= b <= 4) are free to draw, and no more
        start = time.perf_counter()
        code, out, err = run(capsys, "scan", "x + y", "--samples", "60")
        assert time.perf_counter() - start < 10
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "ValueError"
        code, doc, _ = run_json(capsys, "scan", "x + y", "--samples", "51")
        assert code == 0
        assert len(doc["samples"]) == 51

    def test_scan_coordinate(self, capsys):
        code, doc, _ = run_json(capsys, "scan", "y + x^2", "--samples", "4")
        assert code == 0
        assert doc["verdict"]["outcome"] == "coordinate"
        assert doc["violation"] is None


class TestSpecialValues:
    def test_cusp(self, capsys):
        code, doc, _ = run_json(capsys, "special-values", "y^2 - x^3")
        assert code == 0
        assert doc["rational_candidates"] == ["0"]

    def test_minpoly_text(self, capsys):
        code, doc, _ = run_json(capsys, "special-values", "y^2 - x^3 - x - 1")
        assert doc["rational_candidates"] == []
        assert all("c" in w for w in doc["irrational_witnesses"])

    @pytest.mark.parametrize("command", ["special-values", "scan"])
    def test_degree_budget_is_input_too_large(self, capsys, command):
        from jaccoord import gen_random_coordinate

        P, _ = gen_random_coordinate(14, 3, 3, 3)  # degree 27
        code, out, err = run(capsys, command, P.to_str())
        assert code == 1
        assert out == ""
        assert json.loads(err) == {
            "error": {"kind": "InputTooLarge", "detail": "special values need deg P <= 12, got 27"}
        }


class TestGenCoordinate:
    def test_shape(self, capsys):
        code, doc, _ = run_json(
            capsys, "gen-coordinate", "--seed", "7", "--steps", "2", "--max-deg",
            "2", "--bound", "3"
        )
        assert code == 0
        assert doc["seed"] == 7
        assert doc["witness"]
        # generated polynomial round-trips through check
        code2, doc2, _ = run_json(capsys, "check", doc["polynomial"])
        assert code2 == 0

    @pytest.mark.parametrize("steps, max_deg", [("3", "8"), ("4", "5"), ("126", "1")])
    def test_budget_is_input_too_large(self, capsys, steps, max_deg):
        # unbudgeted, 3 steps of degree 8 run past a minute
        start = time.perf_counter()
        code, out, err = run(
            capsys, "gen-coordinate", "--seed", "1", "--steps", steps, "--max-deg", max_deg
        )
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"]["kind"] == "InputTooLarge"

    def test_bound_budget_is_input_too_large(self, capsys):
        # unbudgeted, this ran for about 9 s and failed printing a coefficient
        # of more than 4,300 digits
        start = time.perf_counter()
        code, out, err = run(
            capsys, "gen-coordinate", "--seed", "3", "--steps", "3", "--max-deg", "5",
            "--bound", "1000000000000"
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["kind"] == "InputTooLarge"

    @pytest.mark.parametrize("steps, max_deg", [("3", "5"), ("1", "125"), ("125", "1")])
    def test_bound_5_at_the_degree_budget(self, capsys, steps, max_deg):
        code, doc, _ = run_json(
            capsys, "gen-coordinate", "--seed", "1", "--steps", steps, "--max-deg", max_deg, "--bound", "5"
        )
        assert code == 0 and doc["witness"]

    def test_readme_example_within_budget(self, capsys):
        code, doc, _ = run_json(
            capsys, "gen-coordinate", "--seed", "7", "--steps", "3", "--max-deg", "3", "--bound", "5"
        )
        assert code == 0
        assert run_json(capsys, "check", doc["polynomial"])[0] == 0


class TestSafetyGuards:
    """Internal checks that no input is known to reach, each forced by a
    monkeypatched helper: the exception and the CLI's error document."""

    def test_jacobian_not_constant(self, capsys, monkeypatch):
        from jaccoord import BiPoly, InternalVerificationFailure, check, coordinate

        monkeypatch.setattr(coordinate, "jacobian_det", lambda P, Q: BiPoly.var_x())
        with pytest.raises(InternalVerificationFailure, match="jacobian of certified pair not constant"):
            check(parse_poly("y + x^3"))
        code, out, err = run(capsys, "check", "y + x^3")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == {
            "kind": "InternalVerificationFailure", "detail": "jacobian of certified pair not constant"
        }

    def test_corrupt_complement_fails_the_packed_jacobian(self, capsys, monkeypatch):
        # the complement is corrupted to Q + x^2, so J(P, Q + x^2) = J(P, Q) - 2x P_y
        # is not constant, and the real jacobian_det must see it
        from jaccoord import InternalVerificationFailure, check, coordinate, qpoly

        real = coordinate.apply_witness
        calls = []

        def corrupt(W):
            X, Q = real(W)
            return X, Q + parse_poly("x^2")

        def spy(P, Q):
            calls.append((P, Q))
            return qpoly.jacobian_det(P, Q)

        monkeypatch.setattr(coordinate, "apply_witness", corrupt)
        monkeypatch.setattr(coordinate, "jacobian_det", spy)
        for text in ("y + x^3", "x + 2/3*(y + x^2)^3"):
            with pytest.raises(InternalVerificationFailure, match="jacobian of certified pair not constant"):
                check(parse_poly(text))
            code, out, err = run(capsys, "check", "--", text)
            assert (code, out) == (1, "")
            assert json.loads(err)["error"] == {
                "kind": "InternalVerificationFailure", "detail": "jacobian of certified pair not constant"
            }
        assert len(calls) == 4
        assert not qpoly.jacobian_det(*calls[0]).is_constant()

    def test_ruppert_solution_space_lost(self, capsys, monkeypatch):
        from jaccoord import InternalVerificationFailure, absolute_factor_count, fibre

        monkeypatch.setattr(fibre, "rank_mod_p", lambda rows, p: len(rows[0]))
        with pytest.raises(InternalVerificationFailure, match="Ruppert solution space lost"):
            absolute_factor_count(parse_poly("y - x^2"))
        code, out, err = run(capsys, "fibre", "y - x^2", "--c", "1")
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["kind"] == "InternalVerificationFailure"
        assert error["detail"].startswith("Ruppert solution space lost")

    def test_scan_zero_samples(self, capsys):
        from jaccoord import theorem3_scan

        with pytest.raises(ValueError, match="n_random must be >= 1"):
            theorem3_scan(parse_poly("x*y"), n_random=0)
        code, out, err = run(capsys, "scan", "x*y", "--samples", "0")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == {"kind": "ValueError", "detail": "n_random must be >= 1"}


class TestExactDocuments:
    """Whole JSON documents, one per obstruction and violation kind: a key
    added, dropped or renamed in any result encoding fails here."""

    NOT_TRIANGLE = {"kind": "PolygonNotTriangle", "missing_vertex": [1, 0], "point": None}
    CASES = [
        (["check", "y + x^3"], 0,
         {"jacobian": "-1", "outcome": "coordinate", "witness_steps": 2}),
        (["witness", "y + x^3"], 0,
         {"complement": "x", "jacobian": "-1", "outcome": "coordinate",
          "steps": [{"kind": "TriangularY", "phi": "-x^3"},
                    {"a": "0", "b": "1", "c": "1", "d": "0", "e": "0", "f": "0",
                     "kind": "Linear"}]}),
        (["check", "x^2 + y^2 + x^2*y^2"], 2,
         {"at_stage": "x^2*y^2 + x^2 + y^2", "outcome": "not_coordinate",
          "obstruction": {"kind": "PolygonNotTriangle", "missing_vertex": None,
                          "point": [2, 2]}}),
        (["check", "x*y"], 2,
         {"at_stage": "x*y", "obstruction": NOT_TRIANGLE, "outcome": "not_coordinate"}),
        (["check", "x^2 + x*y + y^2 + x"], 2,
         {"at_stage": "x^2 + x*y + y^2 + x", "outcome": "not_coordinate",
          "obstruction": {"k": 0, "kind": "FaceNotBinomialPower"}}),
        (["check", "x^2 + y^3"], 2,
         {"at_stage": "y^3 + x^2", "outcome": "not_coordinate",
          "obstruction": {"kind": "FaceExponentsBothExceedOne", "p": 2, "q": 3}}),
        (["check", "y^3 + 1"], 2,
         {"at_stage": "y^3 + 1", "outcome": "not_coordinate",
          "obstruction": {"deg": 3, "kind": "UnivariateNonlinear", "var": "y"}}),
        (["check", "3"], 2,
         {"at_stage": "3", "obstruction": {"kind": "ConstantPolynomial"},
          "outcome": "not_coordinate"}),
        (["fibre", "x*y", "--c=0"], 0,
         {"abs_factor_count": 2, "branches_at_infinity": {"unknown": "Reducible"},
          "c": "0", "genus": {"unknown": "Reducible"}, "multiplicity_reduced": True,
          "nondegenerate": False}),
        (["polygon", "y^2 - x^3"], 0,
         {"boundary": 6, "dim": 2, "face": {"C": "1", "a": "1", "m": 1, "p": 3, "q": 2},
          "interior": 1, "triangle": True, "twice_area": 6,
          "vertices": [[0, 0], [3, 0], [0, 2]]}),
        (["special-values", "x^3 + x"], 0,
         {"irrational_witnesses": ["c^2 + 4/27"], "rational_candidates": []}),
        (["scan", "x*y", "--samples", "1"], 0,
         {"all_sampled_irreducible": False, "generic_branches": 2,
          "generic_genus": {"unknown": "NoData"}, "genus_constant_on_known": True,
          "h_source_c": "3/4", "relation_holds_on_known": True,
          "samples": [
              {"abs_factor_count": 2, "branches_at_infinity": {"unknown": "Reducible"},
               "c": "0", "genus": {"unknown": "Reducible"},
               "multiplicity_reduced": True, "nondegenerate": False},
              {"abs_factor_count": 1, "branches_at_infinity": 2, "c": "3/4",
               "genus": {"unknown": "SegmentPolygon"}, "multiplicity_reduced": True,
               "nondegenerate": True}],
          "special_values": {"irrational_witnesses": [], "rational_candidates": ["0"]},
          "theorem_violation_suspected": False,
          "verdict": {"at_stage": "x*y", "obstruction": NOT_TRIANGLE,
                      "outcome": "not_coordinate"},
          "violation": {"c": "0", "kind": "ReducibleFibre"}}),
        (["scan", "x^2 + y^3", "--samples", "1"], 0,
         {"all_sampled_irreducible": True, "generic_branches": 1, "generic_genus": 1,
          "genus_constant_on_known": True, "h_source_c": "3/4",
          "relation_holds_on_known": False,
          "samples": [
              {"abs_factor_count": 1, "branches_at_infinity": {"unknown": "ZeroConstantTerm"},
               "c": "0", "genus": {"unknown": "Degenerate"},
               "multiplicity_reduced": True, "nondegenerate": False},
              {"abs_factor_count": 1, "branches_at_infinity": 1, "c": "3/4", "genus": 1,
               "multiplicity_reduced": True, "nondegenerate": True}],
          "special_values": {"irrational_witnesses": [], "rational_candidates": ["0"]},
          "theorem_violation_suspected": False,
          "verdict": {"at_stage": "y^3 + x^2", "outcome": "not_coordinate",
                      "obstruction": {"kind": "FaceExponentsBothExceedOne", "p": 2, "q": 3}},
          "violation": {"kind": "Inconclusive", "unknown_cs": ["0"]}}),
    ]

    @pytest.mark.parametrize("argv, code, doc", CASES)
    def test_document(self, capsys, argv, code, doc):
        assert run_json(capsys, *argv)[:2] == (code, doc)

    def test_genus_jump(self, capsys, monkeypatch):
        # no small input jumps genus between rational fibres, so one scan's
        # violation is replaced before the CLI encodes it
        import dataclasses

        from jaccoord import cli, rat
        from jaccoord.audit import GenusJump

        scan = cli.theorem3_scan
        monkeypatch.setattr(
            cli,
            "theorem3_scan",
            lambda *a, **kw: dataclasses.replace(
                scan(*a, **kw),
                violation=GenusJump(c1=rat(-1), c2=rat(3, 4)),
                theorem_violation_suspected=True,
            ),
        )
        code, doc, _ = run_json(capsys, "scan", "x*y", "--samples", "1")
        assert code == 3
        assert doc["violation"] == {"c1": "-1", "c2": "3/4", "kind": "GenusJump"}
        assert doc["theorem_violation_suspected"] is True


class TestDeterminism:
    CASES = [
        ("check", "y + x^3"),
        ("witness", "y^2 - x^3"),
        ("polygon", "y^2 - x^3 - x - 1"),
        ("fibre", "x*y", "--c", "2/3"),
        ("scan", "y^2 - x^3", "--samples", "4", "--seed", "5"),
        ("special-values", "x + x^2*y"),
        ("gen-coordinate", "--seed", "3", "--steps", "3", "--max-deg", "3",
         "--bound", "5"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0])
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2
        assert out1.encode() == out2.encode()


class TestCorpus:
    def write_case(self, d, name, expr, tag):
        (d / name).write_text(f"{expr}\n{tag}\n", encoding="utf-8")

    def test_empty_directory(self, capsys, tmp_path):
        code, doc, _ = run_json(capsys, "corpus", str(tmp_path))
        assert code == 0
        assert doc["cases"] == 0

    def test_matching_corpus(self, capsys, tmp_path):
        self.write_case(tmp_path, "a.case", "x*y", "PolygonNotTriangle")
        self.write_case(tmp_path, "b.case", "y + x^3", "coordinate")
        self.write_case(tmp_path, "c.case", "x^2 + y^3", "not_coordinate")
        code, doc, _ = run_json(capsys, "corpus", str(tmp_path), "--samples", "2")
        assert code == 0
        assert doc["cases"] == 3
        assert doc["failed"] == 0

    def test_mismatch_fails(self, capsys, tmp_path):
        self.write_case(tmp_path, "a.case", "x*y", "coordinate")
        code, doc, _ = run_json(capsys, "corpus", str(tmp_path), "--samples", "2")
        assert code == 1
        assert doc["failed"] == 1

    def test_bad_case_file(self, capsys, tmp_path):
        (tmp_path / "a.case").write_text("x*y\n", encoding="utf-8")
        code, out, err = run(capsys, "corpus", str(tmp_path))
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "CaseFormatError"

    def test_not_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "corpus", str(tmp_path / "missing"))
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "UsageError"


class TestUsage:
    def test_unknown_flag(self, capsys):
        code, out, err = run(capsys, "check", "x", "--nope")
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "UsageError"

    def test_missing_subcommand(self, capsys):
        code, out, err = run(capsys)
        assert code == 1
