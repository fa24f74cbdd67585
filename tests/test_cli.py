"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import load_database, main
from repro.errors import ReproError


@pytest.fixture
def db_file(tmp_path):
    payload = {
        "relations": [
            {
                "name": "UserGroup",
                "schema": ["user", "group"],
                "rows": [["joe", "g1"], ["joe", "g2"], ["ann", "g1"]],
            },
            {
                "name": "GroupFile",
                "schema": ["group", "file"],
                "rows": [["g1", "f1"], ["g2", "f1"], ["g2", "f2"]],
            },
        ]
    }
    path = tmp_path / "db.json"
    path.write_text(json.dumps(payload))
    return str(path)


QUERY = "PROJECT[user, file](UserGroup JOIN GroupFile)"


class TestLoadDatabase:
    def test_loads_relations(self, db_file):
        db = load_database(db_file)
        assert set(db.names()) == {"UserGroup", "GroupFile"}
        assert ("joe", "g1") in db["UserGroup"]

    def test_missing_relations_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        with pytest.raises(ReproError, match="relations"):
            load_database(str(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"relations": [{"name": "R"}]}))
        with pytest.raises(ReproError, match="missing key"):
            load_database(str(path))

    @pytest.mark.parametrize(
        "relations, names",
        [
            ({"R": {"name": "R", "schema": ["A"], "rows": [[1]]}}, "dict"),
            ([["R"]], r"relations\[0\]"),
            ([{"name": "R", "schema": ["A"], "rows": 5}], "'R'.*rows 5"),
            ([{"name": "R", "schema": ["A"], "rows": [5]}], "'R'.*rows \\[5\\]"),
            ([{"name": "R", "schema": "A", "rows": [[1]]}], "'R'.*schema 'A'"),
        ],
    )
    def test_malformed_entries_name_the_file_and_entry(
        self, tmp_path, relations, names
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"relations": relations}))
        with pytest.raises(ReproError, match="bad.json") as caught:
            load_database(str(path))
        assert caught.match(names)

    def test_malformed_entry_is_a_clean_cli_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"relations": {"R": {}}}))
        assert main(["show", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestCommands:
    def test_show(self, db_file, capsys):
        assert main(["show", db_file]) == 0
        out = capsys.readouterr().out
        assert "UserGroup" in out and "GroupFile" in out

    def test_eval(self, db_file, capsys):
        assert main(["eval", db_file, QUERY]) == 0
        out = capsys.readouterr().out
        assert "| joe" in out and "f1" in out

    def test_classify(self, capsys):
        assert main(["classify", QUERY]) == 0
        out = capsys.readouterr().out
        assert "operators: PJ" in out
        assert "normal form: True" in out

    def test_normalize(self, db_file, capsys):
        assert main(["normalize", db_file, f"SELECT[user = 'joe']({QUERY})"]) == 0
        out = capsys.readouterr().out
        assert "PROJECT" in out

    def test_plan(self, db_file, capsys):
        assert main(["plan", db_file, QUERY]) == 0
        out = capsys.readouterr().out
        assert "output schema: (user, file)" in out
        assert "Project [user, file]" in out
        assert "HashJoin on (group)" in out
        assert "Scan UserGroup" in out and "Scan GroupFile" in out

    def test_plan_renders_logical_before_and_after(self, db_file, capsys):
        query = f"SELECT[user = 'joe']({QUERY})"
        assert main(["plan", db_file, query]) == 0
        out = capsys.readouterr().out
        assert "logical plan (input):" in out
        assert "logical plan (optimized):" in out
        assert "physical plan:" in out
        assert "applied rewrites:" in out
        # The selection was pushed into the UserGroup scan as a residual.
        assert "push-select-join" in out
        assert "Scan UserGroup schema=(user, group) filter=[user = 'joe']" in out

    def test_plan_no_optimize_compiles_query_as_written(self, db_file, capsys):
        query = f"SELECT[user = 'joe']({QUERY})"
        assert main(["plan", db_file, query, "--no-optimize"]) == 0
        out = capsys.readouterr().out
        assert "logical plan (optimized):" not in out
        assert "Filter [user = 'joe']" in out  # selection stays a Filter op
        assert "filter=[" not in out

    def test_plan_rejects_malformed_query(self, db_file, capsys):
        # Union of incompatible schemas fails at compile time, exit 1.
        assert main(["plan", db_file, "UserGroup UNION GroupFile"]) == 1
        assert "incompatible" in capsys.readouterr().err

    def test_witnesses(self, db_file, capsys):
        assert main(["witnesses", db_file, QUERY, '["joe", "f1"]']) == 0
        out = capsys.readouterr().out
        assert out.count("witness ") == 2

    def test_delete_view_objective(self, db_file, capsys):
        assert main(["delete", db_file, QUERY, '["joe", "f1"]']) == 0
        out = capsys.readouterr().out
        assert "side effects: none" in out
        assert "delete:" in out

    def test_delete_source_objective(self, db_file, capsys):
        code = main(
            ["delete", db_file, QUERY, '["joe", "f1"]', "--objective", "source"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm:" in out

    def test_delete_guarded_refuses_hard_class(self, db_file, capsys):
        code = main(
            ["delete", db_file, QUERY, '["joe", "f1"]', "--no-exponential"]
        )
        assert code == 1
        assert "NP-hard" in capsys.readouterr().err

    def test_annotate(self, db_file, capsys):
        assert main(["annotate", db_file, QUERY, '["joe", "f1"]', "file"]) == 0
        out = capsys.readouterr().out
        assert "annotate: (GroupFile" in out
        assert "side effects: 0" in out


class TestErrorHandling:
    def test_missing_file(self, capsys):
        assert main(["show", "/nonexistent/db.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_row_json(self, db_file, capsys):
        assert main(["witnesses", db_file, QUERY, "not-json"]) == 1
        assert "invalid row" in capsys.readouterr().err

    def test_row_not_array(self, db_file, capsys):
        assert main(["witnesses", db_file, QUERY, '{"a": 1}']) == 1
        assert "JSON array" in capsys.readouterr().err

    def test_missing_view_row(self, db_file, capsys):
        assert main(["witnesses", db_file, QUERY, '["zz", "zz"]']) == 1
        assert "error" in capsys.readouterr().err

    def test_normalize_names_offending_subexpression(self, db_file, capsys):
        # The inner union is ill-typed; the error renders that subtree, not
        # just the schema mismatch message.
        query = "PROJECT[user](UserGroup JOIN (UserGroup UNION GroupFile))"
        assert main(["normalize", db_file, query]) == 1
        err = capsys.readouterr().err
        assert "incompatible" in err
        assert "in subexpression:" in err
        assert "UNION\n    UserGroup\n    GroupFile" in err
        # The enclosing join is not blamed — only the innermost offender.
        assert "JOIN" not in err

    def test_classify_parse_error_points_at_offender(self, capsys):
        assert main(["classify", "PROJECT[user](UserGroup %% GroupFile)"]) == 1
        err = capsys.readouterr().err
        assert "unexpected character" in err
        assert "in query:" in err
        # The caret sits under the offending character.
        lines = err.splitlines()
        query_line = next(l for l in lines if "PROJECT[user]" in l)
        caret_line = lines[lines.index(query_line) + 1]
        assert caret_line[query_line.index("%")] == "^"

    def test_normalize_parse_error_points_at_offender(self, db_file, capsys):
        assert main(["normalize", db_file, "PROJECT[user](UserGroup"]) == 1
        err = capsys.readouterr().err
        assert "in query:" in err and "^" in err
