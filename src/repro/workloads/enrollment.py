"""The paper's motivating scenario: enrollments of students in courses.

A many-to-many relationship whose single index, ordered on
``(course, student)``, should serve both class rosters (merge join with
courses) and student transcripts (merge join with students) — the
latter by modifying the scan's sort order to ``(student, course)``
(Table 1 case 3).  With multiple campuses the orders gain a shared
prefix (case 5), and with repeatable courses a ``semester`` suffix
(case 7).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..model import Schema, SortSpec, Table


@dataclass
class EnrollmentWorkload:
    """Three tables plus the single enrollment index of the scenario."""

    students: Table
    courses: Table
    #: The one stored copy: sorted on (campus, course, student, semester).
    enrollments: Table
    n_campuses: int

    @property
    def roster_order(self) -> SortSpec:
        """Scan order serving course rosters."""
        if self.n_campuses > 1:
            return SortSpec.of("campus", "course", "student", "semester")
        return SortSpec.of("course", "student", "semester")

    @property
    def transcript_order(self) -> SortSpec:
        """Desired order serving student transcripts."""
        if self.n_campuses > 1:
            return SortSpec.of("campus", "student", "course", "semester")
        return SortSpec.of("student", "course", "semester")


def make_enrollment_workload(
    n_students: int = 200,
    n_courses: int = 50,
    n_enrollments: int = 2000,
    n_campuses: int = 1,
    n_semesters: int = 4,
    repeat_fraction: float = 0.05,
    seed: int = 0,
) -> EnrollmentWorkload:
    """Build a seeded enrollment scenario.

    Students and courses are scoped per campus (their identifiers are
    meaningful only within a campus, as in the paper's multi-campus
    discussion).  A small fraction of enrollments repeats an existing
    (student, course) pair in a later semester.
    """
    rng = random.Random(seed)

    student_schema = Schema.of("campus", "student", "gpa_x100")
    students = sorted(
        (c, s, rng.randrange(0, 401))
        for c in range(n_campuses)
        for s in range(n_students)
    )
    students_table = Table(
        student_schema, students, SortSpec.of("campus", "student")
    ).with_ovcs()

    course_schema = Schema.of("campus", "course", "credits")
    courses = sorted(
        (c, k, rng.choice((2, 3, 4, 6)))
        for c in range(n_campuses)
        for k in range(n_courses)
    )
    courses_table = Table(
        course_schema, courses, SortSpec.of("campus", "course")
    ).with_ovcs()

    enroll_schema = Schema.of("campus", "course", "student", "semester", "grade_x10")
    seen: set[tuple] = set()
    enrollments: list[tuple] = []
    while len(enrollments) < n_enrollments:
        campus = rng.randrange(n_campuses)
        course = rng.randrange(n_courses)
        student = rng.randrange(n_students)
        semester = rng.randrange(n_semesters)
        key = (campus, course, student, semester)
        if key in seen:
            continue
        seen.add(key)
        enrollments.append(key + (rng.randrange(10, 41),))
        if rng.random() < repeat_fraction and semester + 1 < n_semesters:
            retry = (campus, course, student, semester + 1)
            if retry not in seen:
                seen.add(retry)
                enrollments.append(retry + (rng.randrange(10, 41),))
    enrollments.sort()
    enrollments_table = Table(
        enroll_schema,
        enrollments,
        SortSpec.of("campus", "course", "student", "semester"),
    ).with_ovcs()
    return EnrollmentWorkload(
        students_table, courses_table, enrollments_table, n_campuses
    )
