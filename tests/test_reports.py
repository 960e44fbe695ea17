from qcontract.reports import CheckReport, report_to_json_dict


def test_add_residual_passes_exactly_on_a_zero_residual(pe_suq2):
    report = CheckReport()
    report.add_residual("zero", pe_suq2("0"), "Eq. (1)")
    report.add_residual("nonzero", pe_suq2("q*b - c"))
    report.add_residual("contracted", pe_suq2("0"), raw="b*c - c*b")
    zero, nonzero, contracted = report.records
    assert (zero.ok, zero.residual, zero.paper_eq) == (True, "0", "Eq. (1)")
    assert (nonzero.ok, nonzero.residual) == (False, str(pe_suq2("q*b - c")))
    assert report.failures() == [nonzero]
    checks = report_to_json_dict(report, "v", {})["checks"]
    assert [sorted(c) for c in checks[:2]] == [
        ["millis", "name", "paper_eq", "residual", "status"]] * 2
    assert checks[1]["status"] == "fail"
    assert checks[2]["raw"] == "b*c - c*b"
