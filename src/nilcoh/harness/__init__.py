"""Instance catalog, scenario ingestion, CLI, and suite orchestration."""

from .catalog import CATALOG, EQ3_EXTRA, ActionInstance, catalog_by_id
from .scenario import Scenario, load_scenario, subgroup_of_semidirect
from .suite import (
    CheckOutcome,
    SuiteCheck,
    correspondence_report,
    default_suite,
    eq3_report,
    exit_code,
    report_emit,
    run_checks,
    scenario_checks,
)
