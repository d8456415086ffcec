// Package dataset provides the data substrates of the reproduction: the
// paper's worked example (Figures 1–4), and seeded synthetic generators
// that stand in for the Yago2s knowledge graph, the ClueWeb'09 text corpus,
// and the 70-query evaluation workload.
package dataset

import (
	"fmt"
	"strings"
)

var firstNames = []string{
	"Alden", "Berta", "Clovis", "Dorian", "Elsa", "Falko", "Greta",
	"Hugo", "Irma", "Jonas", "Karla", "Ludwig", "Mira", "Nils",
	"Olga", "Piet", "Runa", "Stefan", "Thea", "Ulrich",
}

var lastNames = []string{
	"Ackermann", "Brenner", "Claussen", "Dittmar", "Eichel", "Falkner",
	"Gruber", "Hartwig", "Ibsen", "Jaeger", "Kessler", "Lindt",
	"Moser", "Nagel", "Oswald", "Planck", "Quandt", "Richter",
	"Sommer", "Tauber",
}

var cityPrefixes = []string{
	"North", "South", "East", "West", "New", "Old", "Upper", "Lower",
	"Great", "Fair",
}

var citySuffixes = []string{
	"ford", "burg", "ville", "stad", "haven", "field", "port",
	"bridge", "mouth", "wick",
}

var countryNames = []string{
	"Aldoria", "Belmont", "Cordova", "Drevania", "Elbonia",
	"Florin", "Genovia", "Hyrkania", "Illyria", "Jotunheim",
}

var fieldPhrases = []string{
	"quantum mechanics", "number theory", "organic chemistry",
	"cell biology", "game theory", "fluid dynamics",
	"plate tectonics", "machine learning", "radio astronomy",
	"microeconomics", "epidemiology", "crystallography",
}

var prizeNames = []string{
	"NobelPrize", "FieldsMedal", "TuringAward", "WolfPrize",
}

var leagueNames = []string{
	"IvyLeague", "CoastalLeague", "HanseaticLeague",
}

// cityName returns the resource name of city i.
func cityName(i int) string {
	p := cityPrefixes[i%len(cityPrefixes)]
	s := citySuffixes[(i/len(cityPrefixes))%len(citySuffixes)]
	name := p + s
	if n := i / (len(cityPrefixes) * len(citySuffixes)); n > 0 {
		name = fmt.Sprintf("%s%d", name, n)
	}
	return name
}

// countryName returns the resource name of country i.
func countryName(i int) string {
	if i < len(countryNames) {
		return countryNames[i]
	}
	return fmt.Sprintf("%s%d", countryNames[i%len(countryNames)], i/len(countryNames))
}

// universityName derives a university resource from its host city.
func universityName(city string) string { return city + "University" }

// universityMention renders the university's textual mention.
func universityMention(city string) string { return city + " University" }

// prizeName returns the resource name of prize i.
func prizeName(i int) string {
	if i < len(prizeNames) {
		return prizeNames[i]
	}
	return fmt.Sprintf("%s%d", prizeNames[i%len(prizeNames)], i/len(prizeNames))
}

// prizeMention renders a prize mention: "Nobel Prize" for NobelPrize.
func prizeMention(i int) string {
	name := prizeName(i)
	var b strings.Builder
	for j, r := range name {
		if j > 0 && r >= 'A' && r <= 'Z' {
			b.WriteByte(' ')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// leagueName returns the resource name of league i.
func leagueName(i int) string {
	if i < len(leagueNames) {
		return leagueNames[i]
	}
	return fmt.Sprintf("%s%d", leagueNames[i%len(leagueNames)], i/len(leagueNames))
}

// fieldPhrase returns the token phrase of research field i.
func fieldPhrase(i int) string {
	if i < len(fieldPhrases) {
		return fieldPhrases[i]
	}
	return fmt.Sprintf("%s %d", fieldPhrases[i%len(fieldPhrases)], i/len(fieldPhrases))
}
